package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync/atomic"
)

// kvValueSize is the size of every value kv-serve stores.
const kvValueSize = 128

var errBadValue = errors.New("value fails its self-check")

// encodeValue builds the value of version ver of key: the key, the
// version, filler derived from both, and a CRC-32 of everything before it.
func encodeValue(key, ver uint64) []byte {
	v := make([]byte, kvValueSize)
	binary.LittleEndian.PutUint64(v[0:], key)
	binary.LittleEndian.PutUint64(v[8:], ver)
	x := key*0x9e3779b97f4a7c15 ^ ver
	for i := 16; i < kvValueSize-4; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v[i] = byte(x)
	}
	binary.LittleEndian.PutUint32(v[kvValueSize-4:], crc32.ChecksumIEEE(v[:kvValueSize-4]))
	return v
}

// decodeValue checks a value read for key and returns its version.
func decodeValue(key uint64, v []byte) (uint64, error) {
	if len(v) != kvValueSize {
		return 0, fmt.Errorf("key %d: %w: %d bytes, want %d", key, errBadValue, len(v), kvValueSize)
	}
	if crc32.ChecksumIEEE(v[:kvValueSize-4]) != binary.LittleEndian.Uint32(v[kvValueSize-4:]) {
		return 0, fmt.Errorf("key %d: %w: checksum mismatch", key, errBadValue)
	}
	if got := binary.LittleEndian.Uint64(v[0:]); got != key {
		return 0, fmt.Errorf("key %d: %w: value belongs to key %d", key, errBadValue, got)
	}
	return binary.LittleEndian.Uint64(v[8:]), nil
}

// keyState tracks the writes of one key.  Writes of a key come only from
// its owning caller, one at a time, so versions are applied and
// acknowledged in the order they were issued.  States are encoded as
// version<<1 | deleted.
type keyState struct {
	acked   atomic.Uint64 // last acknowledged write
	issued  atomic.Uint64 // last issued write
	lastDel atomic.Uint64 // version of the last issued delete
}

// kvOracle knows, for every key, which values a read may return.
type kvOracle struct {
	keys []keyState
}

func newKVOracle(n int) *kvOracle { return &kvOracle{keys: make([]keyState, n)} }

func encState(ver uint64, del bool) uint64 {
	if del {
		return ver<<1 | 1
	}
	return ver << 1
}

// issue records a write the key's owner is about to send and returns its
// version.
func (o *kvOracle) issue(key uint64, del bool) uint64 {
	k := &o.keys[key]
	v := k.issued.Load()>>1 + 1
	if del {
		k.lastDel.Store(v)
	}
	k.issued.Store(encState(v, del))
	return v
}

// ack records that the write of version v was acknowledged.
func (o *kvOracle) ack(key, v uint64, del bool) { o.keys[key].acked.Store(encState(v, del)) }

// floor returns the state a read issued now must not see anything older
// than: the last acknowledged write.
func (o *kvOracle) floor(key uint64) uint64 { return o.keys[key].acked.Load() }

// check validates a read of key that was issued when floor was the last
// acknowledged write.  A value must carry its own key, pass its checksum,
// and have a version between the floor and the last version issued.  A
// missing key is valid only if the floor is a delete or a delete was
// issued after it.
func (o *kvOracle) check(key, floor uint64, val []byte, found bool) error {
	k := &o.keys[key]
	lo, hi := floor>>1, k.issued.Load()>>1
	if !found {
		if floor&1 == 1 || k.lastDel.Load() > lo {
			return nil
		}
		return fmt.Errorf("key %d: not found, but version %d was acknowledged and no later delete was issued", key, lo)
	}
	v, err := decodeValue(key, val)
	if err != nil {
		return err
	}
	if v < lo || v > hi || (v == lo && floor&1 == 1) {
		return fmt.Errorf("key %d: read version %d, want a set in [%d, %d] (acknowledged state %d, deleted=%v)",
			key, v, lo, hi, lo, floor&1 == 1)
	}
	return nil
}

// checkFinal validates a read made after every write finished.
func (o *kvOracle) checkFinal(key uint64, val []byte, found bool) error {
	return o.check(key, o.floor(key), val, found)
}

// live counts the keys whose last acknowledged write is a set.
func (o *kvOracle) live() int64 {
	var n int64
	for i := range o.keys {
		if s := o.keys[i].acked.Load(); s != 0 && s&1 == 0 {
			n++
		}
	}
	return n
}
