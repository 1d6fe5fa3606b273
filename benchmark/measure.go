package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/reprolab/face/internal/buffer"
	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/face"
	"github.com/reprolab/face/internal/metrics"
	"github.com/reprolab/face/internal/obs"
)

// devices are the timing wrappers around one engine's devices.
type devices struct {
	data, flash, log *timedDev
}

func (d devices) trace(r *recorder) {
	for _, t := range []*timedDev{d.data, d.flash, d.log} {
		t.trace(r)
	}
}

// mark is every counter a measurement window subtracts.
type mark struct {
	at                  time.Time
	snap                engine.Snapshot
	walNext             uint64
	data, flash, logDev devCounts
	mem                 runtime.MemStats
}

func takeMark(eng *engine.DB, d devices) mark {
	m := mark{
		snap:    eng.Snapshot(),
		walNext: uint64(eng.Log().Next()),
		data:    d.data.counts(),
		flash:   d.flash.counts(),
		logDev:  d.log.counts(),
	}
	runtime.ReadMemStats(&m.mem)
	m.at = time.Now()
	return m
}

// usage sums the counter deltas of one or more measurement windows (a
// run with restarts has one window per engine instance).
type usage struct {
	pool                   buffer.Stats
	cache                  face.Stats
	data, flash, logDev    devCounts
	dataBusy, flashBusy    time.Duration
	logBusy                time.Duration
	commits                int64
	walBytes               uint64
	locks                  metrics.LockStats
	phaseSum, phaseCount   [6]int64
	alloc, mallocs         uint64
	gcCycles, gcPauseNanos uint64
}

func (u *usage) add(a, b mark) {
	u.pool.Hits += b.snap.Pool.Hits - a.snap.Pool.Hits
	u.pool.Misses += b.snap.Pool.Misses - a.snap.Pool.Misses
	u.pool.DirtyEvictions += b.snap.Pool.DirtyEvictions - a.snap.Pool.DirtyEvictions
	c := &u.cache
	ac, bc := a.snap.Cache, b.snap.Cache
	c.Lookups += bc.Lookups - ac.Lookups
	c.Hits += bc.Hits - ac.Hits
	c.StageIns += bc.StageIns - ac.StageIns
	c.DirtyStageIns += bc.DirtyStageIns - ac.DirtyStageIns
	c.FlashPageWrites += bc.FlashPageWrites - ac.FlashPageWrites
	c.DiskPageWrites += bc.DiskPageWrites - ac.DiskPageWrites
	c.SecondChances += bc.SecondChances - ac.SecondChances
	u.data = u.data.plus(b.data.sub(a.data))
	u.flash = u.flash.plus(b.flash.sub(a.flash))
	u.logDev = u.logDev.plus(b.logDev.sub(a.logDev))
	u.dataBusy += b.snap.Data.Busy - a.snap.Data.Busy
	u.flashBusy += b.snap.Flash.Busy - a.snap.Flash.Busy
	u.logBusy += b.snap.Log.Busy - a.snap.Log.Busy
	u.commits += b.snap.Committed - a.snap.Committed
	u.walBytes += b.walNext - a.walNext
	l := b.snap.Locks.Sub(a.snap.Locks)
	u.locks.Waits += l.Waits
	u.locks.WaitTime += l.WaitTime
	u.locks.Deadlocks += l.Deadlocks
	ph := b.snap.Phases.Sub(a.snap.Phases)
	for i, h := range []obs.HistSnapshot{ph.Admission, ph.LockWait, ph.Buffer, ph.WalAppend, ph.DurableWait, ph.Closure} {
		u.phaseSum[i] += h.Sum
		u.phaseCount[i] += h.Count
	}
	u.alloc += b.mem.TotalAlloc - a.mem.TotalAlloc
	u.mallocs += b.mem.Mallocs - a.mem.Mallocs
	u.gcCycles += uint64(b.mem.NumGC - a.mem.NumGC)
	u.gcPauseNanos += b.mem.PauseTotalNs - a.mem.PauseTotalNs
}

var phaseNames = [6]string{"admission", "lock_wait", "buffer", "wal_append", "durable_wait", "closure"}

// layerMetrics fills the per-layer metrics of windows in which the
// workload completed ops operations.
func layerMetrics(o *outcome, u *usage, ops int64) {
	o.set("buffer.hit_ratio", u.pool.HitRate())
	o.set("buffer.misses_per_tx", perOp(float64(u.pool.Misses), ops))
	o.set("buffer.dirty_evictions_per_tx", perOp(float64(u.pool.DirtyEvictions), ops))

	c := u.cache
	o.set("face.hit_ratio", c.HitRate())
	o.set("face.write_reduction", c.WriteReduction())
	o.set("face.flash_writes_per_tx", perOp(float64(c.FlashPageWrites), ops))
	o.set("face.stage_ins_per_tx", perOp(float64(c.StageIns), ops))
	o.set("face.second_chances_per_tx", perOp(float64(c.SecondChances), ops))
	o.set("face.disk_writes_per_tx", perOp(float64(c.DiskPageWrites), ops))

	for _, d := range []struct {
		name string
		c    devCounts
		busy time.Duration
	}{
		{"data", u.data, u.dataBusy},
		{"flash", u.flash, u.flashBusy},
		{"log", u.logDev, u.logBusy},
	} {
		p := "device." + d.name + "."
		o.set(p+"reads_per_op", perOp(float64(d.c.Reads), ops))
		o.set(p+"writes_per_op", perOp(float64(d.c.Writes), ops))
		o.set(p+"call_us_per_op", perOp(d.c.CallTime.Seconds()*1e6, ops))
		o.set(p+"busy_sim_ms_per_kop", perOp(d.busy.Seconds()*1e6, ops))
	}
	o.set("device.log.syncs_per_op", perOp(float64(u.logDev.Syncs), ops))

	// commits_per_sync counts engine commits against the log device's
	// Sync calls as the wrapper saw them, not the WAL's own force
	// counters (which skip forces the syncer had already covered).
	o.set("wal.bytes_per_commit", perOp(float64(u.walBytes), u.commits))
	o.set("wal.commits_per_sync", perOp(float64(u.commits), u.logDev.Syncs))

	o.set("lock.waits_per_op", perOp(float64(u.locks.Waits), ops))
	o.set("lock.wait_us_per_op", perOp(u.locks.WaitTime.Seconds()*1e6, ops))
	o.set("lock.deadlocks", float64(u.locks.Deadlocks))

	for i, name := range phaseNames {
		o.set("engine.phase_"+name+"_us", perOp(float64(u.phaseSum[i])/1e3, u.phaseCount[i]))
	}

	o.set("runtime.alloc_kb_per_op", perOp(float64(u.alloc)/1024, ops))
	o.set("runtime.allocs_per_op", perOp(float64(u.mallocs), ops))
	o.set("runtime.gc_cycles_per_kop", perOp(float64(u.gcCycles)*1000, ops))
	o.set("runtime.gc_pause_us_per_kop", perOp(float64(u.gcPauseNanos), ops))
}

// spanMetrics fills the span-derived per-layer metrics.  They are per
// recorded operation span: once the recorder is full, later operations
// and their device calls are not recorded.
func spanMetrics(o *outcome, rec *recorder) {
	spans, layers := rec.finish()
	var ops int64
	for _, lt := range layers {
		if lt.Layer == "op" {
			ops = lt.Count
		}
	}
	o.spans, o.layerTable, o.ops = spans, layers, ops
	for _, lt := range layers {
		switch lt.Layer {
		case "op":
			o.set("span.op.self_us_per_op", perOp(lt.Self.Seconds()*1e6, ops))
		case "device.data", "device.flash", "device.log":
			o.set("span."+lt.Layer+".us_per_op", perOp(lt.Total.Seconds()*1e6, ops))
		}
	}
	o.set("span.recorded", float64(len(spans)))
	rec.mu.Lock()
	o.set("span.dropped", float64(rec.dropped))
	rec.mu.Unlock()
}

// rssPeakMB reads the process's peak resident set size (VmHWM).
func rssPeakMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
