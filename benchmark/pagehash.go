package main

import (
	"context"
	"fmt"
	"hash/crc64"

	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/page"
	"github.com/reprolab/face/internal/tpcc"
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Page header bytes that hold content: type, slot count and the free-space
// bounds.  The id, LSN, checksum and reserved bytes are left out: the LSN
// depends on log records (checkpoints) that differ between configurations
// holding the same data.
const contentHeaderLo, contentHeaderHi = 20, 28

// pageDigest hashes a page's type, slot layout and payload.
func pageDigest(buf page.Buf) uint64 {
	h := crc64.Update(0, crcTable, buf[contentHeaderLo:contentHeaderHi])
	return crc64.Update(h, crcTable, buf[page.HeaderSize:])
}

// pageDigests reads every allocated page in one View and returns their
// digests in page order.
func pageDigests(eng *engine.DB) ([]uint64, error) {
	n := eng.NumPages()
	out := make([]uint64, 0, n)
	err := eng.View(context.Background(), func(tx *engine.Tx) error {
		for id := page.ID(1); int64(id) <= n; id++ {
			if err := tx.Read(id, func(buf page.Buf) error {
				out = append(out, pageDigest(buf))
				return nil
			}); err != nil {
				return fmt.Errorf("reading page %d: %w", id, err)
			}
		}
		return nil
	})
	return out, err
}

// dbState is what the TPC-C oracle compares: every page's digest and the
// driver's transaction tallies (commits per kind and rollbacks).
type dbState struct {
	digests []uint64
	counts  tpcc.Counts
}

// compareStates returns a description of the first difference between the
// measured state and the reference, or "" when they are equal.
func compareStates(got, want dbState) string {
	if got.counts != want.counts {
		return fmt.Sprintf("transaction tallies differ: got %+v, reference %+v", got.counts, want.counts)
	}
	if len(got.digests) != len(want.digests) {
		return fmt.Sprintf("page count differs: got %d, reference %d", len(got.digests), len(want.digests))
	}
	for i := range got.digests {
		if got.digests[i] != want.digests[i] {
			return fmt.Sprintf("page %d differs from the reference", i+1)
		}
	}
	return ""
}
