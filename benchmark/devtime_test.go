package main

import (
	"context"
	"testing"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/device/filedev"
	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/face"
	"github.com/reprolab/face/internal/page"
)

// churn runs n update transactions, each allocating a page and rewriting
// an earlier one, so a small buffer evicts and the devices see traffic.
func churn(t *testing.T, eng *engine.DB, n int) {
	t.Helper()
	var ids []page.ID
	for i := 0; i < n; i++ {
		err := eng.Update(context.Background(), func(tx *engine.Tx) error {
			id, err := tx.Alloc(page.TypeHeap)
			if err != nil {
				return err
			}
			ids = append(ids, id)
			for _, m := range []page.ID{id, ids[(i*7)%len(ids)]} {
				if err := tx.Modify(m, func(b page.Buf) error {
					b[page.HeaderSize+i%100]++
					return nil
				}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("transaction %d: %v", i, err)
		}
	}
}

func TestWrapperImplementsSyncerExactlyWhenInnerDoes(t *testing.T) {
	sim, _ := wrapDev(device.New("sim", device.ProfileCheetah15K, 64), "device.data")
	if _, ok := sim.(device.Syncer); ok {
		t.Error("wrapper of a simulated device implements device.Syncer")
	}
	f, err := filedev.Open("file", t.TempDir()+"/f", 64, filedev.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	file, _ := wrapDev(f, "device.data")
	if _, ok := file.(device.Syncer); !ok {
		t.Error("wrapper of a file device does not implement device.Syncer")
	}
}

// logSyncs runs the same workload on file devices, wrapped or not, and
// returns the log file's Sync count.
func logSyncs(t *testing.T, wrap bool) int64 {
	set, err := filedev.OpenSet(t.TempDir(), filedev.SetConfig{
		FlashBlocks: face.FlashDeviceBlocks(64, 0) + face.FlashDeviceSlack,
		Workers:     1,
		NoFsync:     true, // Sync calls are still made and counted
	})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	data, logDev, flash := device.Dev(set.Data), device.Dev(set.Log), device.Dev(set.Flash)
	if wrap {
		data, _ = wrapDev(data, "device.data")
		logDev, _ = wrapDev(logDev, "device.log")
		flash, _ = wrapDev(flash, "device.flash")
	}
	eng, err := engine.Open(engine.Config{
		DataDev: data, LogDev: logDev, FlashDev: flash,
		Policy: engine.PolicyFaCEGSC, FlashFrames: 64, GroupSize: 8, BufferPages: 16,
		DisableObs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	churn(t, eng, 40)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	return set.Log.Syncs()
}

func TestWrappedRunMakesTheSameLogSyncs(t *testing.T) {
	plain, wrapped := logSyncs(t, false), logSyncs(t, true)
	if plain == 0 {
		t.Fatal("workload made no log syncs")
	}
	if wrapped != plain {
		t.Errorf("log syncs: wrapped %d, unwrapped %d", wrapped, plain)
	}
}

func TestWrapperCountsMatchSimulatedDeviceStats(t *testing.T) {
	inner := map[string]device.Dev{
		"data":  device.NewArray("data", device.ProfileCheetah15K, 4, 4096),
		"log":   device.New("log", device.ProfileCheetah15K, 1<<14),
		"flash": device.New("flash", device.ProfileSamsung470, face.FlashDeviceBlocks(64, 64)+face.FlashDeviceSlack),
	}
	wrapped := map[string]device.Dev{}
	timed := map[string]*timedDev{}
	for name, d := range inner {
		wrapped[name], timed[name] = wrapDev(d, "device."+name)
	}
	eng, err := engine.Open(engine.Config{
		DataDev: wrapped["data"], LogDev: wrapped["log"], FlashDev: wrapped["flash"],
		Policy: engine.PolicyFaCEGSC, FlashFrames: 64, GroupSize: 8, SegmentEntries: 64,
		BufferPages: 16, DisableObs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	churn(t, eng, 200)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for name, d := range inner {
		st, c := d.Stats(), timed[name].counts()
		if c.Reads != st.Reads() || c.Writes != st.Writes() {
			t.Errorf("%s: wrapper counted %d reads %d writes, device %d reads %d writes",
				name, c.Reads, c.Writes, st.Reads(), st.Writes())
		}
		if c.Syncs != 0 {
			t.Errorf("%s: %d syncs on a simulated device", name, c.Syncs)
		}
		if st.Ops() == 0 {
			t.Errorf("%s: workload did no I/O", name)
		}
	}
}
