package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/face"
	"github.com/reprolab/face/internal/tpcc"
)

// TPC-C scale and cache configuration: the facebench defaults (see
// internal/bench.DefaultOptions), which keep the paper's ratios.
const (
	tpccWarehouses  = 2
	bufferFraction  = 0.004 // DRAM buffer as a fraction of the database
	minBufferPages  = 24
	dataDisks       = 8 // RAID-0 members of the data volume
	groupSize       = 64
	segmentEntries  = 1024
	checkpointEvery = 500 * time.Millisecond // simulated time

	flashFraction = 0.15 // tpcc-flash: the paper's Fig. 4 point
	// tpcc-crash uses the Table 6 recovery configuration.
	crashFlashFraction = 0.35
	crashBufferPages   = 192
)

// Round sizes.  The simulated log device keeps every log block in memory
// and the log is never truncated, so a run is a sequence of rounds, each
// on a fresh copy of the loaded database running the same transaction
// streams.  Rounds therefore do the same work, and the median over them
// is robust to a disturbed round.
const (
	warmupTx     = 500  // transactions before measuring, in every round
	flashRoundTx = 2000 // measured transactions per tpcc-flash round
	crashCycles  = 4    // crash/restart cycles per tpcc-crash round
	flashReopens = 20   // clean restarts per tpcc-flash round
)

// golden is a freshly loaded TPC-C database image that every engine of a
// run (measured and reference) starts from.
type golden struct {
	content [][]byte
	catalog *tpcc.Database
	pages   int64
}

// discardLog is the log device of engines that are never reopened (the
// loader and the reference): writes are dropped, so the log costs no
// memory.  The WAL reads its device only when opening and recovering.
type discardLog struct{ device.Dev }

func newDiscardLog(name string) discardLog {
	return discardLog{device.New(name, device.ProfileCheetah15K, 1<<18)}
}

func (discardLog) WriteAt(int64, []byte) error    { return nil }
func (discardLog) WriteRun(int64, [][]byte) error { return nil }

// tpccScale is the database a run loads: facebench's default scale, with
// the data generated from the run's seed.
func tpccScale(seed int64) tpcc.Config {
	cfg := tpcc.DefaultConfig(tpccWarehouses)
	cfg.Seed = seed
	return cfg
}

func loadGolden(cfg tpcc.Config) (*golden, error) {
	data := device.New("golden-data", device.ProfileCheetah15K, int64(cfg.Warehouses)*6000+20000)
	eng, err := engine.Open(engine.Config{
		DataDev:     data,
		LogDev:      newDiscardLog("golden-log"),
		BufferPages: 4096,
		Policy:      engine.PolicyNone,
		DisableObs:  true,
	})
	if err != nil {
		return nil, fmt.Errorf("opening loader engine: %w", err)
	}
	cat, err := tpcc.Load(eng, cfg)
	if err != nil {
		eng.Crash()
		return nil, fmt.Errorf("loading TPC-C: %w", err)
	}
	pages := eng.NumPages()
	if err := eng.Close(); err != nil {
		return nil, fmt.Errorf("closing loader engine: %w", err)
	}
	return &golden{content: data.SnapshotContent(), catalog: cat, pages: pages}, nil
}

// tpccConfig is the cache configuration of a measured TPC-C engine.
type tpccConfig struct {
	flashFraction float64
	bufferPages   int // 0 = bufferFraction of the database
	checkpoint    time.Duration
}

// tpccDB is an engine running driver streams of the TPC-C mix.
type tpccDB struct {
	cfg    engine.Config
	eng    *engine.DB
	cat    *tpcc.Database
	drv    *tpcc.Driver // nil after a restart until the next stream
	seed   int64
	runs   int64       // RunOne calls of the current stream
	counts tpcc.Counts // tallies of finished streams
	devs   devices     // timing wrappers (measured engines only)
}

// open clones the golden image onto a face+gsc engine: an 8-disk RAID-0
// data volume and a Samsung 470 MLC flash cache, all timing-wrapped.
func (g *golden) open(c tpccConfig, traced bool) (*tpccDB, error) {
	bufPages := c.bufferPages
	if bufPages == 0 {
		bufPages = max(int(float64(g.pages)*bufferFraction), minBufferPages)
	}
	frames := max(int(float64(g.pages)*c.flashFraction), groupSize*2)
	arr := device.NewArray("data", device.ProfileCheetah15K, dataDisks, int64(len(g.content))+8192)
	arr.LoadLogical(g.content)
	data, dt := wrapDev(arr, "device.data")
	logDev, lt := wrapDev(device.New("log", device.ProfileCheetah15K, 1<<18), "device.log")
	flash, ft := wrapDev(device.New("flash", device.ProfileSamsung470,
		face.FlashDeviceBlocks(frames, segmentEntries)+face.FlashDeviceSlack), "device.flash")
	cfg := engine.Config{
		DataDev:         data,
		LogDev:          logDev,
		FlashDev:        flash,
		BufferPages:     bufPages,
		BufferShards:    1,
		CacheStripes:    1,
		Policy:          engine.PolicyFaCEGSC,
		FlashFrames:     frames,
		GroupSize:       groupSize,
		SegmentEntries:  segmentEntries,
		CheckpointEvery: c.checkpoint,
		DisableObs:      !traced,
		DisableTracing:  !traced,
	}
	eng, err := engine.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("opening face+gsc engine: %w", err)
	}
	return &tpccDB{cfg: cfg, eng: eng, cat: g.catalog.Clone(), devs: devices{data: dt, flash: ft, log: lt}}, nil
}

// openReference clones the golden image onto a PolicyNone engine whose
// buffer holds the whole database, so its pages never cross the flash
// cache, an eviction or a crash.
func (g *golden) openReference() (*tpccDB, error) {
	data := device.New("ref-data", device.ProfileCheetah15K, int64(len(g.content))+8192)
	data.LoadLogical(g.content)
	eng, err := engine.Open(engine.Config{
		DataDev:     data,
		LogDev:      newDiscardLog("ref-log"),
		BufferPages: int(g.pages)*2 + 4096,
		Policy:      engine.PolicyNone,
		DisableObs:  true,
	})
	if err != nil {
		return nil, fmt.Errorf("opening reference engine: %w", err)
	}
	return &tpccDB{eng: eng, cat: g.catalog.Clone()}, nil
}

// streamSeed names the driver stream of one cycle of a round.
func streamSeed(seed int64, cycle int) int64 { return seed*1000 + int64(cycle) }

// stream makes the driver stream with the given seed the current one.
func (d *tpccDB) stream(seed int64) {
	if d.drv != nil && d.seed == seed {
		return
	}
	d.fold()
	d.drv, d.seed, d.runs = tpcc.NewDriver(d.eng, d.cat, seed), seed, 0
}

// fold adds the current stream's tallies to the finished ones.
func (d *tpccDB) fold() {
	if d.drv != nil {
		d.counts = addCounts(d.counts, d.drv.Counts())
		d.drv = nil
	}
}

// run executes n untimed transactions of the current stream.
func (d *tpccDB) run(n int64) error {
	for i := int64(0); i < n; i++ {
		if _, err := d.drv.RunOne(); err != nil {
			return fmt.Errorf("transaction failed: %w", err)
		}
		d.runs++
	}
	return nil
}

// runTimed runs and times one transaction of the current stream.  Every
// transaction counts in all; New-Order (the transaction tpmC counts) is
// the headline operation and Order-Status the read.
func (d *tpccDB) runTimed(all *latencies, w *windows, rec *recorder) error {
	start := time.Now()
	kind, err := d.drv.RunOne()
	end := time.Now()
	if err != nil {
		return fmt.Errorf("transaction failed: %w", err)
	}
	d.runs++
	rec.add("op.tx", 0, start, end)
	all.add(end.Sub(start))
	switch kind {
	case tpcc.KindNewOrder:
		w.op.add(end.Sub(start))
	case tpcc.KindOrderStatus:
		w.read.add(end.Sub(start))
	}
	return nil
}

// restart crashes (or, with clean set, closes) the engine and reopens it
// with recovery on the same devices, which is also how faced restarts.
// The current stream ends: its driver is bound to the old engine.
func (d *tpccDB) restart(rec *recorder, clean bool) (time.Duration, *engine.RecoveryReport, error) {
	if clean {
		if err := d.eng.Close(); err != nil {
			return 0, nil, fmt.Errorf("closing: %w", err)
		}
	} else {
		d.eng.Crash()
	}
	d.fold()
	cfg := d.cfg
	cfg.Recover = true
	start := time.Now()
	eng, err := engine.Open(cfg)
	end := time.Now()
	if err != nil {
		return 0, nil, fmt.Errorf("restarting after crash: %w", err)
	}
	rec.add("restart.open", 0, start, end)
	d.eng = eng
	return end.Sub(start), eng.RecoveryReport(), nil
}

func (d *tpccDB) state() (dbState, error) {
	digests, err := pageDigests(d.eng)
	counts := d.counts
	if d.drv != nil {
		counts = addCounts(counts, d.drv.Counts())
	}
	return dbState{digests: digests, counts: counts}, err
}

func addCounts(a, b tpcc.Counts) tpcc.Counts {
	for i := range a.Committed {
		a.Committed[i] += b.Committed[i]
	}
	a.RolledBack += b.RolledBack
	a.DeadlockRetries += b.DeadlockRetries
	return a
}

// tpccOracle supplies the reference state at each check of a round.
// Every round replays the same driver streams, so the reference runs
// alongside the first round only and later rounds compare against its
// saved states.  A round whose checks differ from the first round's
// (another transaction count at a crash point) gets a reference of its
// own.
type tpccOracle struct {
	g      *golden
	first  []refCheck // the first round's checks
	checks []refCheck // the current round's checks so far
	ref    *tpccDB    // the current round's reference, if it has one
}

type refCheck struct {
	seed, n int64
	want    dbState
}

// verify compares the measured database, after n transactions of stream
// seed, with the reference.  It returns a description of the first
// difference, or "".
func (o *tpccOracle) verify(db *tpccDB, seed, n int64) (string, error) {
	got, err := db.state()
	if err != nil {
		return "", fmt.Errorf("hashing measured database: %w", err)
	}
	want, err := o.want(seed, n)
	if err != nil {
		return "", err
	}
	return compareStates(got, want), nil
}

func (o *tpccOracle) want(seed, n int64) (dbState, error) {
	i := len(o.checks)
	if o.ref == nil && i < len(o.first) && o.first[i].seed == seed && o.first[i].n == n {
		o.checks = append(o.checks, o.first[i])
		return o.first[i].want, nil
	}
	if o.ref == nil {
		ref, err := o.g.openReference()
		if err != nil {
			return dbState{}, err
		}
		o.ref = ref
		for _, c := range o.checks {
			if err := ref.replay(c.seed, c.n); err != nil {
				return dbState{}, err
			}
		}
	}
	if err := o.ref.replay(seed, n); err != nil {
		return dbState{}, err
	}
	want, err := o.ref.state()
	if err != nil {
		return dbState{}, fmt.Errorf("hashing reference database: %w", err)
	}
	o.checks = append(o.checks, refCheck{seed: seed, n: n, want: want})
	return want, nil
}

// replay runs a reference stream up to n transactions.
func (d *tpccDB) replay(seed, n int64) error {
	d.stream(seed)
	if err := d.run(n - d.runs); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	return nil
}

// endRound ends the current round's checks; the first round's become
// the saved ones.
func (o *tpccOracle) endRound() {
	if o.first == nil {
		o.first = o.checks
	}
	o.checks = nil
	if o.ref != nil {
		o.ref.eng.Crash()
		o.ref = nil
	}
}

// startRound opens a measured engine on a fresh copy of the golden image
// and warms it up.
func (g *golden) startRound(c tpccConfig, p params) (*tpccDB, error) {
	db, err := g.open(c, p.traced)
	if err != nil {
		return nil, err
	}
	db.stream(streamSeed(p.seed, 0))
	if err := db.run(warmupTx); err != nil {
		db.eng.Crash()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return db, nil
}

// endRound stops a round's engine and collects its memory (chiefly the
// simulated log) before the next round allocates its own.
func endRound(db *tpccDB, o *tpccOracle) {
	db.eng.Crash()
	o.endRound()
	runtime.GC()
}

// setupTPCC loads the database and starts the first round, p.setups
// times; the last instance is returned with the median set-up time.
func setupTPCC(p params, c tpccConfig) (*tpccOracle, *tpccDB, float64, error) {
	var times []float64
	var g *golden
	var db *tpccDB
	for i := 0; i < p.setups; i++ {
		if db != nil {
			db.eng.Crash()
		}
		start := time.Now()
		var err error
		if g, err = loadGolden(tpccScale(p.seed)); err != nil {
			return nil, nil, 0, err
		}
		if db, err = g.startRound(c, p); err != nil {
			return nil, nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	fmt.Fprintf(os.Stderr, "set-up: %d pages loaded, set-up times %.3f s\n", g.pages, times)
	return &tpccOracle{g: g}, db, median(times), nil
}

// tpccRun accumulates the measurements of a TPC-C run's rounds.
type tpccRun struct {
	lat       windows   // New-Order and Order-Status latencies
	all       latencies // every transaction
	u         usage
	rates     []float64 // transactions per second, per measured window
	restarts  []float64 // wall-clock restart times, ms
	reports   []*engine.RecoveryReport
	newOrders int64
	wall, sim time.Duration
}

// window runs n timed transactions (fewer if stop returns true first) and
// adds the window to the run.
func (r *tpccRun) window(db *tpccDB, n int, rec *recorder, stop func() bool) error {
	before := takeMark(db.eng, db.devs)
	beforeNO := db.drv.Counts().NewOrders()
	done := 0
	for ; done < n && !stop(); done++ {
		if err := db.runTimed(&r.all, &r.lat, rec); err != nil {
			return err
		}
	}
	after := takeMark(db.eng, db.devs)
	r.u.add(before, after)
	wall := after.at.Sub(before.at)
	r.rates = append(r.rates, float64(done)/wall.Seconds())
	r.newOrders += db.drv.Counts().NewOrders() - beforeNO
	r.wall += wall
	r.sim += after.snap.Elapsed - before.snap.Elapsed
	return nil
}

func (r *tpccRun) restart(db *tpccDB, rec *recorder, clean bool) error {
	wall, rep, err := db.restart(rec, clean)
	if err != nil {
		return err
	}
	r.restarts = append(r.restarts, wall.Seconds()*1e3)
	r.reports = append(r.reports, rep)
	return nil
}

// report fills the metrics both TPC-C workloads share.
func (r *tpccRun) report(o *outcome, rec *recorder) {
	r.lat.report(o)
	ops := int64(r.all.count())
	o.set("tpcc.tx_p50_us", r.all.percentile(50))
	o.set("tpcc.tx_p99_us", r.all.percentile(99))
	o.attempted = ops
	o.set("ops_per_s", median(r.rates))
	o.set("recovery.restart_wall_ms", median(r.restarts))
	o.set("tpcc.tpmc_sim", ratio(float64(r.newOrders)*60, r.sim.Seconds()))
	o.set("tpcc.tpmc_wall", ratio(float64(r.newOrders)*60, r.wall.Seconds()))
	layerMetrics(o, &r.u, ops)
	recoveryMetrics(o, r.reports)
	if rec != nil {
		spanMetrics(o, rec)
	}
	o.set("rss_peak_mb", rssPeakMB())
	fmt.Fprintf(os.Stderr, "%d windows, tx/s %.0f, restart wall ms %.1f\n", len(r.rates), r.rates, r.restarts)
	fmt.Fprintln(os.Stderr, r.all.describe("tx"))
}

// recoveryMetrics reports the mean recovery work per restart.
func recoveryMetrics(o *outcome, reps []*engine.RecoveryReport) {
	var scanned, redo, flash, disk, meta, sims []float64
	for _, r := range reps {
		scanned = append(scanned, float64(r.RecordsScanned))
		redo = append(redo, float64(r.RedoApplied))
		flash = append(flash, float64(r.FlashReads))
		disk = append(disk, float64(r.DiskReads))
		meta = append(meta, r.MetadataRestoreTime.Seconds()*1e3)
		sims = append(sims, r.TotalTime.Seconds()*1e3)
	}
	o.set("recovery.records_scanned", mean(scanned))
	o.set("recovery.redo_applied", mean(redo))
	o.set("recovery.flash_reads", mean(flash))
	o.set("recovery.disk_reads", mean(disk))
	o.set("recovery.metadata_restore_ms", mean(meta))
	o.set("recovery.restart_sim_ms", median(sims))
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// runTPCCFlash measures TPC-C with a 15% flash cache in rounds of
// flashRoundTx transactions.  Each round ends with a clean shutdown and a
// restart, and the reopened database must equal the reference.
func runTPCCFlash(p params) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	c := tpccConfig{flashFraction: flashFraction}
	oracle, db, setup, err := setupTPCC(p, c)
	if err != nil {
		return nil, err
	}
	o.set("setup_s", setup)
	var rec *recorder
	if p.traced {
		rec = newRecorder(spanLimit)
	}
	var r tpccRun
	deadline := time.Now().Add(p.duration())
	never := func() bool { return false }
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		if round > 0 {
			if db, err = oracle.g.startRound(c, p); err != nil {
				return nil, err
			}
		}
		db.devs.trace(rec)
		err := r.window(db, flashRoundTx, rec, never)
		seed, n := db.seed, db.runs
		for i := 0; i < flashReopens && err == nil; i++ {
			err = r.restart(db, rec, true)
		}
		if err == nil {
			var diff string
			if diff, err = oracle.verify(db, seed, n); diff != "" {
				o.problem("round %d after restart: %s", round, diff)
			}
		}
		endRound(db, oracle)
		r.lat.close()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
	}
	r.report(o, rec)
	return o, nil
}

// runTPCCCrash runs crash/restart cycles in the Table 6 configuration,
// crashCycles of them per round.
func runTPCCCrash(p params) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	c := tpccConfig{flashFraction: crashFlashFraction, bufferPages: crashBufferPages, checkpoint: checkpointEvery}
	oracle, db, setup, err := setupTPCC(p, c)
	if err != nil {
		return nil, err
	}
	o.set("setup_s", setup)
	var rec *recorder
	if p.traced {
		rec = newRecorder(spanLimit)
	}
	var r tpccRun
	deadline := time.Now().Add(p.duration())
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		if round > 0 {
			if db, err = oracle.g.startRound(c, p); err != nil {
				return nil, err
			}
		}
		db.devs.trace(rec)
		err := r.crashCycles(o, db, oracle, p.seed, round, rec)
		endRound(db, oracle)
		r.lat.close()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
	}
	r.report(o, rec)
	return o, nil
}

// crashCycles runs the cycles of one tpcc-crash round.  Each cycle runs
// until at least two checkpoints completed, crashes halfway into the next
// interval, restarts with recovery and checks the recovered database
// against the reference at the same point.
func (r *tpccRun) crashCycles(o *outcome, db *tpccDB, oracle *tpccOracle, seed int64, round int, rec *recorder) error {
	for cycle := 0; cycle < crashCycles; cycle++ {
		db.stream(streamSeed(seed, cycle))
		first := db.eng.Checkpoints()
		last, lastAt := first, db.eng.Elapsed()
		crashPoint := func() bool {
			now := db.eng.Elapsed()
			if c := db.eng.Checkpoints(); c != last {
				last, lastAt = c, now
			}
			return last-first >= 2 && now-lastAt >= checkpointEvery/2
		}
		// The window ends at the crash point; the transaction bound only
		// catches checkpoints that never complete.
		if err := r.window(db, 100_000, rec, crashPoint); err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
		if !crashPoint() {
			return fmt.Errorf("cycle %d: fewer than two checkpoints", cycle)
		}
		s, n := db.seed, db.runs
		if err := r.restart(db, rec, false); err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
		diff, err := oracle.verify(db, s, n)
		if err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
		if diff != "" {
			o.problem("round %d cycle %d after restart: %s", round, cycle, diff)
		}
	}
	return nil
}
