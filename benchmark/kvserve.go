package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/reprolab/face/internal/device/filedev"
	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/face"
	"github.com/reprolab/face/internal/kv"
	"github.com/reprolab/face/internal/obs"
	"github.com/reprolab/face/internal/page"
	"github.com/reprolab/face/internal/server"
	"github.com/reprolab/face/internal/server/client"
	"github.com/reprolab/face/internal/server/wire"
)

// kv-serve configuration: faced's defaults (cmd/faced), two closed-loop
// callers, and a zipfian GET/SET/DEL mix over a key space that fits in
// the DRAM buffer.
const (
	kvNS          = "bench"
	kvKeys        = 20000
	kvFlashFrames = 4096
	kvBufferPages = 1024
	kvCallers     = 2
	kvZipfS       = 1.1
	kvGetPct      = 80 // then kvSetPct of sets; the rest are deletes
	kvSetPct      = 15
	kvBatch       = 250 // keys per transaction when preloading and before a crash
	kvWarmup      = 3 * time.Second
	kvWindows     = 5 // measurement windows; rates and percentiles are medians over them
	kvBusyRetries = 3
	retryBackoff  = 200 * time.Microsecond // doubled on every retry
	kvScanChunk   = 200
	kvRestarts    = 31   // crash/restart cycles after the measured traffic
	kvCrashWrites = 3000 // sets between the last checkpoint and each crash
)

// kvEnv is an in-process server over file-backed, timing-wrapped devices.
type kvEnv struct {
	dir     string
	set     *filedev.Set
	eng     *engine.DB
	srv     *server.Server
	serving chan error
	clients []*client.Client
	devs    devices
}

// openKV opens (recover: reopens) the database in dir configured as faced
// configures it, serves it on a loopback port and connects one client per
// caller.  fsync is off (faced -nofsync): the devices still see every Sync
// call, but the files may sit on a disk shared with other machines, whose
// flush latency would swamp the engine's.
func openKV(dir string, traced, recover bool) (*kvEnv, error) {
	set, err := filedev.OpenSet(dir, filedev.SetConfig{
		FlashBlocks: face.FlashDeviceBlocks(kvFlashFrames, 0) + face.FlashDeviceSlack,
		Workers:     engine.DefaultFileWorkers,
		NoFsync:     true,
	})
	if err != nil {
		return nil, fmt.Errorf("opening files: %w", err)
	}
	e := &kvEnv{dir: dir, set: set}
	data, dt := wrapDev(set.Data, "device.data")
	logDev, lt := wrapDev(set.Log, "device.log")
	flash, ft := wrapDev(set.Flash, "device.flash")
	e.devs = devices{data: dt, flash: ft, log: lt}
	var reg *obs.Registry
	if traced {
		reg = obs.NewRegistry()
	}
	e.eng, err = engine.Open(engine.Config{
		DataDev:        data,
		LogDev:         logDev,
		FlashDev:       flash,
		Policy:         engine.PolicyFaCEGSC,
		FlashFrames:    kvFlashFrames,
		BufferPages:    kvBufferPages,
		PageLocks:      true,
		MaxWriters:     server.DefaultWriters,
		DisableObs:     !traced,
		DisableTracing: !traced,
		Obs:            reg,
		Recover:        recover,
	})
	if err != nil {
		set.Close()
		return nil, fmt.Errorf("opening engine: %w", err)
	}
	e.srv, err = server.New(e.eng, server.Config{Obs: reg, Tracer: e.eng.Tracer()})
	if err != nil {
		e.eng.Crash()
		set.Close()
		return nil, fmt.Errorf("starting server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.eng.Crash()
		set.Close()
		return nil, fmt.Errorf("listening: %w", err)
	}
	e.serving = make(chan error, 1)
	go func() { e.serving <- e.srv.Serve(ln) }()
	for i := 0; i < kvCallers; i++ {
		c, err := client.Dial(ln.Addr().String(), client.Options{Conns: 1, Trace: traced})
		if err != nil {
			e.close(false)
			return nil, err
		}
		e.clients = append(e.clients, c)
	}
	if err := e.clients[0].Ping(); err != nil {
		e.close(false)
		return nil, fmt.Errorf("ping: %w", err)
	}
	return e, nil
}

// close stops the server and either closes the engine cleanly or crashes
// it (no final flush or sync), then closes the device files.
func (e *kvEnv) close(crash bool) error {
	for _, c := range e.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.serving; serr != nil && err == nil {
		err = fmt.Errorf("serve: %w", serr)
	}
	if crash {
		e.eng.Crash()
	} else if cerr := e.eng.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("closing engine: %w", cerr)
	}
	if cerr := e.set.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("closing files: %w", cerr)
	}
	return err
}

// setKeys sets the keys, kvBatch to a transaction, directly through the
// server's store: set-up and the writes before a crash need no connection
// beyond the callers' two.
func (e *kvEnv) setKeys(o *kvOracle, keys []uint64) error {
	ctx := context.Background()
	ns, err := e.srv.Store().Namespace(kvNS)
	if err != nil {
		return err
	}
	for lo := 0; lo < len(keys); lo += kvBatch {
		batch := keys[lo:min(lo+kvBatch, len(keys))]
		vers := make([]uint64, len(batch))
		for i, k := range batch {
			vers[i] = o.issue(k, false)
		}
		var p *kv.Pending
		if err := withRetry(func() error {
			p = kv.NewPending()
			return e.eng.Update(ctx, func(tx *engine.Tx) error {
				for i, k := range batch {
					if err := ns.Set(tx, p, k, encodeValue(k, vers[i])); err != nil {
						return err
					}
				}
				return nil
			})
		}); err != nil {
			return fmt.Errorf("setting keys: %w", err)
		}
		p.Apply()
		for i, k := range batch {
			o.ack(k, vers[i], false)
		}
	}
	return nil
}

// kvStats is what one caller measured.
type kvStats struct {
	gets, writes      latencies
	attempted, failed int64
	problems          []string
}

func (s *kvStats) merge(o *kvStats) {
	s.gets.merge(&o.gets)
	s.writes.merge(&o.writes)
	s.attempted += o.attempted
	s.failed += o.failed
	s.problems = append(s.problems, o.problems...)
}

// kvOps is the interface a caller drives: the network client or the
// engine directly (in-process).
type kvOps interface {
	get(key uint64) ([]byte, bool, error)
	set(key uint64, val []byte) error
	del(key uint64) error
}

type netOps struct{ c *client.Client }

func (n netOps) get(key uint64) ([]byte, bool, error) { return n.c.Get(kvNS, key) }
func (n netOps) set(key uint64, val []byte) error     { return n.c.Set(kvNS, key, val) }
func (n netOps) del(key uint64) error {
	_, err := n.c.Del(kvNS, key)
	return err
}

// localOps runs the same operations in-process, as the server would,
// without the network and wire layers.
type localOps struct {
	eng *engine.DB
	ns  *kv.Namespace
}

func (l localOps) get(key uint64) (val []byte, found bool, err error) {
	err = l.eng.View(context.Background(), func(tx *engine.Tx) error {
		v, ok, err := l.ns.Get(tx, key)
		val, found = append([]byte(nil), v...), ok
		return err
	})
	return val, found, err
}

func (l localOps) set(key uint64, val []byte) error {
	p := kv.NewPending()
	if err := l.eng.Update(context.Background(), func(tx *engine.Tx) error {
		return l.ns.Set(tx, p, key, val)
	}); err != nil {
		return err
	}
	p.Apply()
	return nil
}

func (l localOps) del(key uint64) error {
	return l.eng.Update(context.Background(), func(tx *engine.Tx) error {
		_, err := l.ns.Delete(tx, key)
		return err
	})
}

// retryable reports whether an operation may be retried: the server shed
// it (BUSY) or the engine chose it as a deadlock victim.
func retryable(err error) bool {
	return errors.Is(err, client.ErrBusy) || errors.Is(err, engine.ErrDeadlock)
}

// drive runs the closed-loop op mix of caller i until the deadline.
// Reads may touch any key; a caller writes only keys of its own parity,
// so each key has a single writer and the oracle can bound every read.
func drive(ops kvOps, i int, rng *rand.Rand, o *kvOracle, deadline time.Time, rec *recorder) *kvStats {
	st := &kvStats{}
	zipf := rand.NewZipf(rng, kvZipfS, 1, kvKeys-1)
	for time.Now().Before(deadline) {
		key := zipf.Uint64()
		pick := rng.Intn(100)
		st.attempted++
		if pick < kvGetPct {
			floor := o.floor(key)
			var val []byte
			var found bool
			start := time.Now()
			err := withRetry(func() (err error) {
				val, found, err = ops.get(key)
				return err
			})
			end := time.Now()
			rec.add("op.get", 0, start, end)
			st.gets.add(end.Sub(start))
			if err != nil {
				st.failed++
				continue
			}
			if err := o.check(key, floor, val, found); err != nil && len(st.problems) < 10 {
				st.problems = append(st.problems, err.Error())
			}
			continue
		}
		key = key&^1 | uint64(i)
		del := pick >= kvGetPct+kvSetPct
		v := o.issue(key, del)
		start := time.Now()
		err := withRetry(func() error {
			if del {
				return ops.del(key)
			}
			return ops.set(key, encodeValue(key, v))
		})
		end := time.Now()
		if del {
			rec.add("op.del", 0, start, end)
		} else {
			rec.add("op.set", 0, start, end)
		}
		st.writes.add(end.Sub(start))
		if err != nil {
			st.failed++
			continue
		}
		o.ack(key, v, del)
	}
	return st
}

// withRetry runs op, retrying a retryable failure with backoff.
func withRetry(op func() error) error {
	err := op()
	for try := 0; try < kvBusyRetries && retryable(err); try++ {
		time.Sleep(retryBackoff << try)
		err = op()
	}
	return err
}

// runCallers runs kvCallers closed-loop callers for d and merges their
// statistics.
func runCallers(mk func(i int) kvOps, seed int64, phase int, o *kvOracle, d time.Duration, rec *recorder) *kvStats {
	deadline := time.Now().Add(d)
	res := make([]*kvStats, kvCallers)
	var wg sync.WaitGroup
	for i := 0; i < kvCallers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(phase*kvCallers+i)))
			res[i] = drive(mk(i), i, rng, o, deadline, rec)
		}(i)
	}
	wg.Wait()
	for _, r := range res[1:] {
		res[0].merge(r)
	}
	return res[0]
}

// setupKV opens the server and preloads it, p.setups times in fresh
// directories; the last instance is returned with the median set-up time.
func setupKV(p params) (*kvEnv, *kvOracle, float64, error) {
	var times []float64
	var env *kvEnv
	var o *kvOracle
	for i := 0; i < p.setups; i++ {
		if env != nil {
			if err := env.close(false); err != nil {
				return nil, nil, 0, err
			}
			os.RemoveAll(env.dir)
			// Collect the closed instance so the peak RSS reflects one.
			runtime.GC()
		}
		dir := filepath.Join(p.work, fmt.Sprintf("kv-%d-%d", os.Getpid(), i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, 0, err
		}
		start := time.Now()
		var err error
		if env, err = openKV(dir, p.traced, false); err != nil {
			return nil, nil, 0, err
		}
		o = newKVOracle(kvKeys)
		keys := make([]uint64, kvKeys)
		for k := range keys {
			keys[k] = uint64(k)
		}
		_, err = env.srv.Store().Create(context.Background(), kvNS)
		if err == nil {
			err = env.setKeys(o, keys)
		}
		if err != nil {
			env.close(true)
			os.RemoveAll(dir)
			return nil, nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	fmt.Fprintf(os.Stderr, "set-up: %d keys preloaded, set-up times %.3f s\n", kvKeys, times)
	return env, o, median(times), nil
}

// runKVServe measures served traffic, then crashes the server's engine,
// restarts it from its files and checks every key through the network.
func runKVServe(p params) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	env, o, setup, err := setupKV(p)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(env.dir)
	out.set("setup_s", setup)
	remote := func(i int) kvOps { return netOps{env.clients[i]} }

	warm := runCallers(remote, p.seed, 0, o, kvWarmup, nil)
	fmt.Fprintf(os.Stderr, "warm-up: %.0f ops/s\n", float64(warm.attempted)/kvWarmup.Seconds())
	var rec *recorder
	if p.traced {
		rec = newRecorder(spanLimit)
		env.devs.trace(rec)
	}
	before := takeMark(env.eng, env.devs)
	srvBefore := env.srv.Stats()
	st := &kvStats{}
	var lat windows
	var rates []float64
	for i := 1; i <= kvWindows; i++ {
		start := time.Now()
		ws := runCallers(remote, p.seed, i, o, p.duration()/kvWindows, rec)
		rates = append(rates, float64(ws.gets.count()+ws.writes.count())/time.Since(start).Seconds())
		lat.op.merge(&ws.writes)
		lat.read.merge(&ws.gets)
		lat.close()
		st.merge(ws)
	}
	after := takeMark(env.eng, env.devs)
	srvAfter := env.srv.Stats()
	env.devs.trace(nil)
	measured := int64(st.gets.count() + st.writes.count())
	fmt.Fprintf(os.Stderr, "window ops/s %.0f\n", rates)
	fmt.Fprintln(os.Stderr, st.gets.describe("get"))
	fmt.Fprintln(os.Stderr, st.writes.describe("set/del"))
	out.set("ops_per_s", median(rates))
	lat.report(out)
	out.set("kv.get_p50_us", st.gets.percentile(50))
	out.set("kv.get_p99_us", st.gets.percentile(99))
	out.set("kv.set_p50_us", st.writes.percentile(50))
	out.set("kv.set_p99_us", st.writes.percentile(99))
	var u usage
	u.add(before, after)
	layerMetrics(out, &u, measured)
	reqs := srvAfter.Requests - srvBefore.Requests
	out.set("server.busy_frac", perOp(float64(srvAfter.Busy-srvBefore.Busy), reqs))
	live := o.live()
	out.set("storage.space_amp", ratio(float64(env.eng.NumPages()+1)*page.Size, float64(live*(8+kvValueSize))))

	if p.traced {
		spanMetrics(out, rec)
		if err := inProcess(out, env, o, p); err != nil {
			env.close(true)
			return nil, err
		}
		out.set("server.net_overhead_us", st.gets.percentile(50)-out.metrics["kv.get_us_p50"])
		wireCost(out)
	}

	// Each restart cycle checkpoints, sets kvCrashWrites random keys and
	// crashes the engine under the stopped server, so every restart
	// replays the same amount of log.  A restart is timed up to the first
	// answered request.
	var restarts []float64
	var reps []*engine.RecoveryReport
	rng := rand.New(rand.NewSource(p.seed))
	for i := 0; i < kvRestarts; i++ {
		keys := make([]uint64, kvCrashWrites)
		for j := range keys {
			keys[j] = uint64(rng.Intn(kvKeys))
		}
		err := env.eng.Checkpoint()
		if err == nil {
			err = env.setKeys(o, keys)
		}
		if err != nil {
			env.close(true)
			return nil, fmt.Errorf("before crash: %w", err)
		}
		if err := env.close(true); err != nil {
			return nil, fmt.Errorf("stopping server: %w", err)
		}
		start := time.Now()
		if env, err = openKV(env.dir, p.traced, true); err != nil {
			return nil, fmt.Errorf("restarting: %w", err)
		}
		restarts = append(restarts, time.Since(start).Seconds()*1e3)
		reps = append(reps, env.eng.RecoveryReport())
	}
	fmt.Fprintf(os.Stderr, "restart wall ms %.1f\n", restarts)
	out.set("recovery.restart_wall_ms", median(restarts))
	recoveryMetrics(out, reps)
	st.merge(warm)
	if err := finalScan(env.clients[0], o, st); err != nil {
		env.close(true)
		return nil, err
	}
	if err := env.close(false); err != nil {
		return nil, err
	}

	out.attempted, out.failed = st.attempted, st.failed
	out.problems = st.problems
	out.set("ops.failed_frac", perOp(float64(st.failed), st.attempted))
	out.set("rss_peak_mb", rssPeakMB())
	return out, nil
}

// finalScan reads every key back through the restarted server and checks
// it against the last acknowledged write.
func finalScan(c *client.Client, o *kvOracle, st *kvStats) error {
	for lo := uint64(0); lo < kvKeys; lo += kvScanChunk {
		hi := min(lo+kvScanChunk, kvKeys) - 1
		pairs, err := c.Scan(kvNS, lo, hi, 0)
		if err != nil {
			return fmt.Errorf("final scan: %w", err)
		}
		got := make(map[uint64][]byte, len(pairs))
		for _, kv := range pairs {
			got[kv.Key] = kv.Value
		}
		for k := lo; k <= hi; k++ {
			val, found := got[k]
			if err := o.checkFinal(k, val, found); err != nil && len(st.problems) < 20 {
				st.problems = append(st.problems, "after restart: "+err.Error())
			}
		}
	}
	return nil
}

// inProcess runs the same op mix against the engine directly (no network,
// no wire codec), then a GET-only pass counting buffer page accesses.
func inProcess(out *outcome, env *kvEnv, o *kvOracle, p params) error {
	ns, err := env.srv.Store().Namespace(kvNS)
	if err != nil {
		return err
	}
	local := func(int) kvOps { return localOps{env.eng, ns} }
	d := p.duration() / 4
	st := runCallers(local, p.seed, kvWindows+1, o, d, nil)
	out.set("kv.get_us_p50", st.gets.percentile(50))
	out.set("kv.set_us_p50", st.writes.percentile(50))
	if st.failed > 0 || len(st.problems) > 0 {
		out.problems = append(out.problems, st.problems...)
		return fmt.Errorf("in-process phase: %d of %d operations failed", st.failed, st.attempted)
	}

	const gets = 2000
	before := env.eng.Snapshot().Pool
	rng := rand.New(rand.NewSource(p.seed))
	ops := localOps{env.eng, ns}
	for i := 0; i < gets; i++ {
		key := uint64(rng.Intn(kvKeys))
		floor := o.floor(key)
		val, found, err := ops.get(key)
		if err != nil {
			return err
		}
		if err := o.check(key, floor, val, found); err != nil {
			out.problem("in-process get: %v", err)
		}
	}
	after := env.eng.Snapshot().Pool
	out.set("btree.page_reads_per_get", float64(after.Hits+after.Misses-before.Hits-before.Misses)/gets)
	return nil
}

// wireCost times the wire codec on a SET request carrying one value.
func wireCost(out *outcome) {
	const n = 20000
	req := &wire.Request{Op: wire.OpSet, NS: kvNS, Key: 12345, Value: encodeValue(12345, 1)}
	var buf bytes.Buffer
	start := time.Now()
	for i := 0; i < n; i++ {
		req.Seq = uint32(i)
		if err := wire.WriteRequest(&buf, req); err != nil {
			out.problem("wire encode: %v", err)
			return
		}
	}
	out.set("wire.encode_ns", float64(time.Since(start).Nanoseconds())/n)
	r := bufio.NewReader(bytes.NewReader(buf.Bytes()))
	start = time.Now()
	for i := 0; i < n; i++ {
		got, err := wire.ReadRequest(r)
		if err != nil || got.Key != req.Key || !bytes.Equal(got.Value, req.Value) {
			out.problem("wire decode: request %d does not round-trip (%v)", i, err)
			return
		}
	}
	out.set("wire.decode_ns", float64(time.Since(start).Nanoseconds())/n)
}
