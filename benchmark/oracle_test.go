package main

import (
	"context"
	"strings"
	"testing"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/page"
	"github.com/reprolab/face/internal/tpcc"
)

// The planted-fault tests prove that no checker is vacuous: each fault
// must be reported as incorrect output.

func TestFlippedPayloadByteIsReported(t *testing.T) {
	eng, err := engine.Open(engine.Config{
		DataDev:     device.New("data", device.ProfileCheetah15K, 1024),
		LogDev:      newDiscardLog("log"),
		BufferPages: 64,
		DisableObs:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Crash()
	churn(t, eng, 20)
	before, err := pageDigests(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Update(context.Background(), func(tx *engine.Tx) error {
		return tx.Modify(7, func(b page.Buf) error {
			b[page.Size-1] ^= 0x10
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	after, err := pageDigests(eng)
	if err != nil {
		t.Fatal(err)
	}
	if d := compareStates(dbState{digests: after}, dbState{digests: before}); !strings.Contains(d, "page 7") {
		t.Errorf("flipped byte on page 7 reported as %q", d)
	}
	if d := compareStates(dbState{digests: before}, dbState{digests: before}); d != "" {
		t.Errorf("identical states reported as %q", d)
	}
}

// tinyTPCC is a TPC-C database small enough for unit tests.
func tinyTPCC() tpcc.Config {
	return tpcc.Config{
		Warehouses: 1, DistrictsPerWarehouse: 2, CustomersPerDistrict: 30,
		Items: 100, InitialOrdersPerDistrict: 10, Seed: 3,
	}
}

func TestReferenceOneTransactionShortIsReported(t *testing.T) {
	g, err := loadGolden(tinyTPCC())
	if err != nil {
		t.Fatal(err)
	}
	db, err := g.open(tpccConfig{flashFraction: flashFraction}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer db.eng.Crash()
	const seed, n = 11, 60
	db.stream(seed)
	if err := db.run(n); err != nil {
		t.Fatal(err)
	}

	full := &tpccOracle{g: g}
	defer full.endRound()
	if d, err := full.verify(db, seed, n); err != nil || d != "" {
		t.Fatalf("matching reference: difference %q, error %v", d, err)
	}
	short := &tpccOracle{g: g}
	defer short.endRound()
	if d, err := short.verify(db, seed, n-1); err != nil || d == "" {
		t.Errorf("reference one transaction short: difference %q, error %v", d, err)
	}
}

func TestDroppedAcknowledgedSetIsReported(t *testing.T) {
	o := newKVOracle(8)
	o.issue(4, false)
	o.ack(4, 1, false)
	v := o.issue(4, false)
	o.ack(4, v, false)
	if err := o.checkFinal(4, encodeValue(4, 1), true); err == nil {
		t.Error("server still holding the value before an acknowledged set: not reported")
	}
	if err := o.checkFinal(4, encodeValue(4, v), true); err != nil {
		t.Errorf("correct final value reported: %v", err)
	}
	if err := o.checkFinal(4, nil, false); err == nil {
		t.Error("acknowledged key missing: not reported")
	}
}

func TestKVReadChecks(t *testing.T) {
	o := newKVOracle(8)
	o.issue(2, false)
	o.ack(2, 1, false)
	floor := o.floor(2)
	v := o.issue(2, true) // a delete in flight: either state may be read
	if err := o.check(2, floor, encodeValue(2, 1), true); err != nil {
		t.Errorf("read of the acknowledged value: %v", err)
	}
	if err := o.check(2, floor, nil, false); err != nil {
		t.Errorf("read missing while a delete is in flight: %v", err)
	}
	o.ack(2, v, true)
	if err := o.check(2, o.floor(2), encodeValue(2, 1), true); err == nil {
		t.Error("value read after its delete was acknowledged: not reported")
	}
	bad := encodeValue(2, 1)
	bad[20] ^= 1
	if err := o.check(2, floor, bad, true); err == nil {
		t.Error("corrupted value: not reported")
	}
	if err := o.check(2, floor, encodeValue(3, 1), true); err == nil {
		t.Error("another key's value: not reported")
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op.tx", Start: 0, End: 100},
		{ID: 2, Parent: parentUnknown, Name: "device.data.read", Start: 10, End: 30},
		{ID: 3, Parent: parentUnknown, Name: "device.data.read", Start: 20, End: 40},
		{ID: 4, Parent: parentUnknown, Name: "device.log.write", Start: 150, End: 160},
	}
	resolveParents(spans)
	if spans[1].Parent != 1 || spans[2].Parent != 1 || spans[3].Parent != 0 {
		t.Fatalf("parents resolved as %+v", spans)
	}
	for _, lt := range selfTimes(spans) {
		if lt.Layer == "op" && (lt.Total != 100 || lt.Self != 70) {
			t.Errorf("op layer: total %v self %v, want 100ns and 70ns", lt.Total, lt.Self)
		}
	}
}
