package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call.  Times are nanoseconds since the recorder was created.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// parentUnknown marks a span recorded where its caller is not known (a
// device call made on whichever goroutine the engine chose).  finish
// assigns it the innermost explicitly parented span that contains it.
const parentUnknown = -1

// spanLimit caps the spans one traced run keeps; later ones are counted
// as dropped.
const spanLimit = 400_000

// recorder keeps spans in memory until the run ends.  A nil *recorder
// records nothing, so untraced runs pay one nil check per call.
type recorder struct {
	base  time.Time
	limit int

	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newRecorder(limit int) *recorder {
	return &recorder{base: time.Now(), limit: limit}
}

// add records a span.  parent is 0 for a root span or parentUnknown.
func (r *recorder) add(name string, parent int64, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= r.limit {
		r.dropped++
		return
	}
	r.spans = append(r.spans, span{
		ID: int64(len(r.spans) + 1), Parent: parent, Name: name,
		Start: int64(start.Sub(r.base)), End: int64(end.Sub(r.base)),
	})
}

// layerOf names the layer a span belongs to: its name up to the last dot
// ("device.data.read" is in layer "device.data").
func layerOf(name string) string {
	if i := strings.LastIndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// layerTime is the time spent in one layer's spans: total duration and
// self time (duration minus the part of it child spans cover).
type layerTime struct {
	Layer string
	Count int64
	Total time.Duration
	Self  time.Duration
}

// finish resolves unknown parents by containment and returns the spans
// and the per-layer times, sorted by layer name.
func (r *recorder) finish() ([]span, []layerTime) {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	resolveParents(spans)
	return spans, selfTimes(spans)
}

// resolveParents gives every span with an unknown parent the explicitly
// parented span that contains it and started last (the innermost one), or
// 0 when none contains it.
func resolveParents(spans []span) {
	var known []int // indexes of explicitly parented spans, by start
	for i, s := range spans {
		if s.Parent != parentUnknown {
			known = append(known, i)
		}
	}
	sort.Slice(known, func(a, b int) bool { return spans[known[a]].Start < spans[known[b]].Start })
	for i := range spans {
		s := &spans[i]
		if s.Parent != parentUnknown {
			continue
		}
		s.Parent = 0
		// Candidates start at or before s; scan back over the few most
		// recent ones (at most one per concurrent caller is open).
		j := sort.Search(len(known), func(k int) bool { return spans[known[k]].Start > s.Start })
		for k := j - 1; k >= 0 && k >= j-8; k-- {
			if c := spans[known[k]]; c.End >= s.End {
				s.Parent = c.ID
				break
			}
		}
	}
}

// selfTimes sums each layer's span durations and self times.  A span's
// self time is its duration minus the union of its children's intervals
// clipped to it.
func selfTimes(spans []span) []layerTime {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byLayer := make(map[string]*layerTime)
	for _, s := range spans {
		l := layerOf(s.Name)
		lt := byLayer[l]
		if lt == nil {
			lt = &layerTime{Layer: l}
			byLayer[l] = lt
		}
		dur := s.End - s.Start
		lt.Count++
		lt.Total += time.Duration(dur)
		lt.Self += time.Duration(dur - covered(children[s.ID], s.Start, s.End))
	}
	out := make([]layerTime, 0, len(byLayer))
	for _, lt := range byLayer {
		out = append(out, *lt)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Layer < out[b].Layer })
	return out
}

// covered returns the length of the union of the intervals clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// printLayerTable prints the per-layer self-time table, per operation.
func printLayerTable(w io.Writer, layers []layerTime, ops int64) {
	fmt.Fprintf(w, "%-14s %9s %14s %14s\n", "layer", "spans", "total_us/op", "self_us/op")
	for _, lt := range layers {
		fmt.Fprintf(w, "%-14s %9d %14.2f %14.2f\n", lt.Layer, lt.Count,
			perOp(lt.Total.Seconds()*1e6, ops), perOp(lt.Self.Seconds()*1e6, ops))
	}
}
