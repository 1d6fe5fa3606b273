// Command facebenchmark is the repository's benchmark.  It drives the
// engine from outside through the internal packages' public functions,
// checks every workload's output against an oracle, and prints one JSON
// result line.  See README.md for the workloads, metrics and file formats.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run (-trace 0); every workload
// reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p90_us", "us"},
	{"read_p50_us", "us"},
}

// perLayer are the metrics of a traced run (-trace 1).  A layer a
// workload bypasses reports 0.
var perLayer = []metricDef{
	{"buffer.hit_ratio", "ratio"},
	{"buffer.misses_per_tx", "count"},
	{"buffer.dirty_evictions_per_tx", "count"},
	{"face.hit_ratio", "ratio"},
	{"face.write_reduction", "ratio"},
	{"face.flash_writes_per_tx", "count"},
	{"face.stage_ins_per_tx", "count"},
	{"face.second_chances_per_tx", "count"},
	{"face.disk_writes_per_tx", "count"},
	{"device.data.reads_per_op", "count"},
	{"device.data.writes_per_op", "count"},
	{"device.data.call_us_per_op", "us"},
	{"device.data.busy_sim_ms_per_kop", "ms"},
	{"device.flash.reads_per_op", "count"},
	{"device.flash.writes_per_op", "count"},
	{"device.flash.call_us_per_op", "us"},
	{"device.flash.busy_sim_ms_per_kop", "ms"},
	{"device.log.reads_per_op", "count"},
	{"device.log.writes_per_op", "count"},
	{"device.log.call_us_per_op", "us"},
	{"device.log.busy_sim_ms_per_kop", "ms"},
	{"device.log.syncs_per_op", "count"},
	{"wal.bytes_per_commit", "bytes"},
	{"wal.commits_per_sync", "count"},
	{"lock.waits_per_op", "count"},
	{"lock.wait_us_per_op", "us"},
	{"lock.deadlocks", "count"},
	{"engine.phase_admission_us", "us"},
	{"engine.phase_lock_wait_us", "us"},
	{"engine.phase_buffer_us", "us"},
	{"engine.phase_wal_append_us", "us"},
	{"engine.phase_durable_wait_us", "us"},
	{"engine.phase_closure_us", "us"},
	{"recovery.records_scanned", "count"},
	{"recovery.redo_applied", "count"},
	{"recovery.flash_reads", "count"},
	{"recovery.disk_reads", "count"},
	{"recovery.metadata_restore_ms", "ms"},
	{"kv.get_us_p50", "us"},
	{"kv.set_us_p50", "us"},
	{"btree.page_reads_per_get", "count"},
	{"server.net_overhead_us", "us"},
	{"server.busy_frac", "ratio"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cycles_per_kop", "count"},
	{"runtime.gc_pause_us_per_kop", "us"},
	{"trace.overhead_frac", "ratio"},
	{"span.op.self_us_per_op", "us"},
	{"span.device.data.us_per_op", "us"},
	{"span.device.flash.us_per_op", "us"},
	{"span.device.log.us_per_op", "us"},
	{"span.recorded", "count"},
	{"span.dropped", "count"},
	{"latency.op_p99_us", "us"},
	{"latency.samples", "count"},
	{"latency.top_percentile", "%"},
	{"tpcc.tx_p50_us", "us"},
	{"tpcc.tx_p99_us", "us"},
	{"tpcc.tpmc_sim", "1/min"},
	{"tpcc.tpmc_wall", "1/min"},
	{"recovery.restart_sim_ms", "ms"},
	{"recovery.restart_wall_ms", "ms"},
	{"kv.get_p50_us", "us"},
	{"kv.get_p99_us", "us"},
	{"kv.set_p50_us", "us"},
	{"kv.set_p99_us", "us"},
	{"storage.space_amp", "ratio"},
	{"ops.failed_frac", "ratio"},
}

// params configures one run of a workload.
type params struct {
	seed    int64
	seconds float64
	traced  bool
	setups  int    // set-ups per run; setup_s is their median
	work    string // scratch directory for database files
}

func (p params) duration() time.Duration { return time.Duration(p.seconds * float64(time.Second)) }

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int64
	problems          []string // oracle violations; any makes the run incorrect
	metrics           map[string]float64
	layerTable        []layerTime // traced runs only
	spans             []span      // traced runs only
	ops               int64       // operations the layer table is divided by
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

// problem records an oracle violation.  Only the first few are kept.
func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type workload struct {
	name string
	why  string
	run  func(p params) (*outcome, error)
}

var workloads = []workload{
	{"tpcc-flash", "TPC-C on simulated disks with a 15% flash cache: nearly every page access crosses buffer, face and device", runTPCCFlash},
	{"tpcc-crash", "TPC-C with checkpoints, crashed and restarted repeatedly (not in BENCHMARK.json: fails its oracle under face+gsc, see README)", runTPCCCrash},
	{"kv-serve", "in-process faced server on loopback over files (fsync off): data fits in DRAM, so it bypasses the flash cache", runKVServe},
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: tpcc-flash, tpcc-crash or kv-serve")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measurement time in seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	work := flag.String("work", ".bench_build/work", "directory for database files and span output")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || *traced < 0 || *traced > 1 {
		fmt.Fprintf(os.Stderr, "usage: facebenchmark -workload <name> -seed <n> -seconds <s> -trace <0|1>\n")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", w.name, w.why)
		}
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "facebenchmark: %v\n", err)
		return 1
	}
	p := params{seed: *seed, seconds: *seconds, work: *work, setups: setupRepeats}
	start := time.Now()
	var out *outcome
	var err error
	if *traced == 1 {
		out, err = runTraced(w, p)
	} else {
		out, err = w.run(p)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "facebenchmark: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "%s: finished in %v\n", w.name, time.Since(start).Round(time.Millisecond))

	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
		printLayerTable(os.Stderr, out.layerTable, out.ops)
		path := filepath.Join(*work, fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed))
		if err := writeSpans(path, out.spans); err != nil {
			fmt.Fprintf(os.Stderr, "facebenchmark: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	}
	res := jsonResult{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok && *traced == 0 {
			fmt.Fprintf(os.Stderr, "facebenchmark: %s did not measure %s\n", w.name, d.Name)
			return 1
		}
		res.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	printSorted(out.metrics)
	for _, pr := range out.problems {
		fmt.Fprintf(os.Stderr, "INCORRECT: %s\n", pr)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "facebenchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// setupRepeats is how often an untraced run sets up its workload.
const setupRepeats = 3

// runTraced runs the workload untraced and then traced, half the time
// each, with one set-up apiece.  The per-layer metrics come from the traced
// run; trace.overhead_frac is the relative throughput it lost.
func runTraced(w *workload, p params) (*outcome, error) {
	p.seconds /= 2
	p.setups = 1
	plain, err := w.run(p)
	if err != nil {
		return nil, err
	}
	p.traced = true
	out, err := w.run(p)
	if err != nil {
		return nil, err
	}
	out.set("trace.overhead_frac", 1-ratio(out.metrics["ops_per_s"], plain.metrics["ops_per_s"]))
	out.attempted += plain.attempted
	out.failed += plain.failed
	out.problems = append(plain.problems, out.problems...)
	return out, nil
}

// printSorted logs every measured value, including those not reported in
// this mode, to standard error.
func printSorted(m map[string]float64) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %.6g\n", n, m[n])
	}
}

// perOp divides, returning 0 for an empty denominator.
func perOp(v float64, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return v / float64(ops)
}

// ratio divides, returning 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
