package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// latencies holds every sample of one timed operation, so percentiles are
// exact order statistics rather than histogram bucket estimates.
type latencies struct {
	samples []time.Duration
}

func (l *latencies) add(d time.Duration) { l.samples = append(l.samples, d) }

func (l *latencies) merge(o *latencies) { l.samples = append(l.samples, o.samples...) }

func (l *latencies) count() int { return len(l.samples) }

// percentile returns the p-th percentile (0 < p <= 100) by the
// nearest-rank method, in microseconds; 0 without samples.
func (l *latencies) percentile(p float64) float64 {
	n := len(l.samples)
	if n == 0 {
		return 0
	}
	if !sort.SliceIsSorted(l.samples, func(a, b int) bool { return l.samples[a] < l.samples[b] }) {
		sort.Slice(l.samples, func(a, b int) bool { return l.samples[a] < l.samples[b] })
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = min(max(rank, 1), n)
	return float64(l.samples[rank-1]) / float64(time.Microsecond)
}

// topPercentile is the highest of the usual reporting percentiles that
// has at least ten samples beyond it (0 when even the median has not).
func (l *latencies) topPercentile() float64 {
	n := float64(len(l.samples))
	best := 0.0
	for _, p := range []float64{50, 90, 99, 99.9, 99.99} {
		if n*(1-p/100) >= 10 {
			best = p
		}
	}
	return best
}

// describe is a one-line summary for the log.
func (l *latencies) describe(name string) string {
	top := l.topPercentile()
	return fmt.Sprintf("%s: n=%d p50=%.1fus p99=%.1fus top supported p%g=%.1fus",
		name, l.count(), l.percentile(50), l.percentile(99), top, l.percentile(top))
}

// minWindowSamples is the fewest headline-operation samples a window
// needs for its p99 to have ten samples beyond it.
const minWindowSamples = 1000

// windows reports the end-to-end latency percentiles of a run as medians
// over its measurement windows, so one disturbed window does not move
// them.  Samples go to the current window until close; a window closes
// once it holds minWindowSamples headline operations.
type windows struct {
	op, read         latencies // the current window
	totalOp, totalRd latencies // every sample of the run
	p50, p90, p99    []float64 // per closed window
	r50              []float64
}

// close ends the current window if it holds enough samples.
func (w *windows) close() {
	if w.op.count() < minWindowSamples {
		return
	}
	w.add()
}

func (w *windows) add() {
	w.p50 = append(w.p50, w.op.percentile(50))
	w.p90 = append(w.p90, w.op.percentile(90))
	w.p99 = append(w.p99, w.op.percentile(99))
	w.r50 = append(w.r50, w.read.percentile(50))
	w.totalOp.merge(&w.op)
	w.totalRd.merge(&w.read)
	w.op, w.read = latencies{}, latencies{}
}

// report sets the latency metrics.  Samples of an unfinished window count
// in the totals only, unless no window finished.
func (w *windows) report(o *outcome) {
	if len(w.p50) == 0 && w.op.count() > 0 {
		w.add()
	}
	w.totalOp.merge(&w.op)
	w.totalRd.merge(&w.read)
	w.op, w.read = latencies{}, latencies{}
	o.set("op_p50_us", median(w.p50))
	o.set("op_p90_us", median(w.p90))
	o.set("latency.op_p99_us", median(w.p99))
	o.set("read_p50_us", median(w.r50))
	o.set("latency.samples", float64(w.totalOp.count()))
	o.set("latency.top_percentile", w.totalOp.topPercentile())
	fmt.Fprintf(os.Stderr, "per-window op p50 us %.0f, p90 us %.0f, p99 us %.0f, read p50 us %.0f\n", w.p50, w.p90, w.p99, w.r50)
	fmt.Fprintln(os.Stderr, w.totalOp.describe("op"))
	fmt.Fprintln(os.Stderr, w.totalRd.describe("read"))
}
