package main

import (
	"sync/atomic"
	"time"

	"github.com/reprolab/face/internal/device"
)

// devCounts are the operations a timedDev saw: blocks read and written
// (the unit device.Stats counts in), Sync calls, and the wall-clock time
// spent inside the inner device's methods.
type devCounts struct {
	Reads, Writes, Syncs int64
	CallTime             time.Duration
}

func (c devCounts) sub(prior devCounts) devCounts {
	return devCounts{
		Reads:    c.Reads - prior.Reads,
		Writes:   c.Writes - prior.Writes,
		Syncs:    c.Syncs - prior.Syncs,
		CallTime: c.CallTime - prior.CallTime,
	}
}

func (c devCounts) plus(o devCounts) devCounts {
	return devCounts{
		Reads:    c.Reads + o.Reads,
		Writes:   c.Writes + o.Writes,
		Syncs:    c.Syncs + o.Syncs,
		CallTime: c.CallTime + o.CallTime,
	}
}

// timedDev wraps a device and counts and times every call into it.  While
// a span recorder is attached (trace), each call also becomes a span named
// after the device's layer ("device.data", "device.log", "device.flash").
type timedDev struct {
	device.Dev
	layer string
	spans atomic.Pointer[recorder]

	reads, writes, syncs atomic.Int64
	callNanos            atomic.Int64
}

// timedSyncDev is a timedDev over a device with a durability barrier.  It
// exists so that the wrapper implements device.Syncer exactly when the
// inner device does: the WAL type-asserts Syncer to enable its torn-tail
// slot and device.Sync relies on it to fsync, so a wrapper that dropped
// the method would silently weaken durability.
type timedSyncDev struct {
	*timedDev
	syncer device.Syncer
}

// wrapDev returns dev wrapped in a timing wrapper, implementing
// device.Syncer if and only if dev does.  The second result gives access
// to the counters.
func wrapDev(dev device.Dev, layer string) (device.Dev, *timedDev) {
	t := &timedDev{Dev: dev, layer: layer}
	if s, ok := dev.(device.Syncer); ok {
		return &timedSyncDev{timedDev: t, syncer: s}, t
	}
	return t, t
}

// counts returns the operations seen so far.
func (d *timedDev) counts() devCounts {
	return devCounts{
		Reads:    d.reads.Load(),
		Writes:   d.writes.Load(),
		Syncs:    d.syncs.Load(),
		CallTime: time.Duration(d.callNanos.Load()),
	}
}

// trace attaches a span recorder (nil detaches).
func (d *timedDev) trace(r *recorder) { d.spans.Store(r) }

func (d *timedDev) done(op string, start time.Time) {
	end := time.Now()
	d.callNanos.Add(int64(end.Sub(start)))
	d.spans.Load().add(d.layer+"."+op, parentUnknown, start, end)
}

func (d *timedDev) ReadAt(blk int64, p []byte) error {
	start := time.Now()
	err := d.Dev.ReadAt(blk, p)
	d.reads.Add(1)
	d.done("read", start)
	return err
}

func (d *timedDev) WriteAt(blk int64, p []byte) error {
	start := time.Now()
	err := d.Dev.WriteAt(blk, p)
	d.writes.Add(1)
	d.done("write", start)
	return err
}

func (d *timedDev) ReadRun(blk int64, n int, fn func(i int, p []byte) error) error {
	start := time.Now()
	err := d.Dev.ReadRun(blk, n, fn)
	d.reads.Add(int64(n))
	d.done("read", start)
	return err
}

func (d *timedDev) WriteRun(blk int64, pages [][]byte) error {
	start := time.Now()
	err := d.Dev.WriteRun(blk, pages)
	d.writes.Add(int64(len(pages)))
	d.done("write", start)
	return err
}

func (d *timedSyncDev) Sync() error {
	start := time.Now()
	err := d.syncer.Sync()
	d.syncs.Add(1)
	d.done("sync", start)
	return err
}
