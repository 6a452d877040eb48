package ckptstore

import (
	"encoding/binary"
	"fmt"
)

// The delta codec is a prefix/suffix diff: a delta records how many leading
// and trailing bytes the target shares with its parent and carries only the
// middle verbatim. Tenant checkpoint payloads are canonical binary records
// whose edits between cuts are localized (a round counter, a few queue
// entries, appended decisions), so the shared prefix and suffix absorb most
// of the bytes — and
// the codec stays trivially deterministic and linear-time, which the cut path
// (inside the shard goroutine, between rounds) requires.
//
// Encoding: uvarint prefixLen, uvarint suffixLen, middle bytes (to the end of
// the ops). ApplyDelta validates every length against the parent before
// allocating, errors on any inconsistency, and never panics on arbitrary
// bytes — the FuzzChunkStore target pins that.

// MakeDelta encodes target as a delta against parent. The result is always
// valid to apply, but only worth storing when shorter than the target; the
// store's put path makes that call.
func MakeDelta(parent, target []byte) []byte {
	prefix := 0
	max := len(parent)
	if len(target) < max {
		max = len(target)
	}
	for prefix < max && parent[prefix] == target[prefix] {
		prefix++
	}
	suffix := 0
	for suffix < max-prefix && parent[len(parent)-1-suffix] == target[len(target)-1-suffix] {
		suffix++
	}
	mid := target[prefix : len(target)-suffix]
	ops := make([]byte, 0, 2*binary.MaxVarintLen64+len(mid))
	ops = binary.AppendUvarint(ops, uint64(prefix))
	ops = binary.AppendUvarint(ops, uint64(suffix))
	ops = append(ops, mid...)
	return ops
}

// ApplyDelta reconstructs the target payload from a parent payload and delta
// ops. Malformed ops (truncated varints, lengths exceeding the parent or the
// chunk bound) are errors, never panics.
func ApplyDelta(parent, ops []byte) ([]byte, error) {
	prefix, n := binary.Uvarint(ops)
	if n <= 0 {
		return nil, fmt.Errorf("ckptstore: delta truncated in prefix length")
	}
	ops = ops[n:]
	suffix, n := binary.Uvarint(ops)
	if n <= 0 {
		return nil, fmt.Errorf("ckptstore: delta truncated in suffix length")
	}
	mid := ops[n:]
	if prefix > uint64(len(parent)) || suffix > uint64(len(parent))-prefix {
		return nil, fmt.Errorf("ckptstore: delta claims prefix %d + suffix %d of a %d-byte parent", prefix, suffix, len(parent))
	}
	total := prefix + suffix + uint64(len(mid))
	if total > MaxChunkLen {
		return nil, fmt.Errorf("ckptstore: delta reconstructs %d bytes, exceeding the %d-byte bound", total, MaxChunkLen)
	}
	out := make([]byte, 0, total)
	out = append(out, parent[:prefix]...)
	out = append(out, mid...)
	out = append(out, parent[len(parent)-int(suffix):]...)
	return out, nil
}
