// Package ckptstore is the incremental checkpoint store of the serve tier: a
// content-addressed chunk store with delta encoding, small manifests that
// reference chunks instead of embedding state, an append-only streaming
// decision log, and a bundle format for shipping manifests plus missing
// chunks over the dispatcher wire.
//
// The design mirrors the paper's cost-of-movement framing: a checkpoint cut
// pays bytes only for tenants whose state actually changed (delta chunks),
// identical state is never written twice (content addressing dedupes), and a
// reshard moves references, not tenant images. Chunks are immutable once
// written; manifests are the only mutable commit points, written atomically
// via internal/atomicio, so a crash between a chunk write and a manifest
// rename leaves orphan chunks that are garbage-collected and never read.
package ckptstore

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// chunkMagic opens every encoded chunk. Distinct from JSON ('{') and from the
// bundle magic, so a sniffing reader can classify any artifact.
const chunkMagic = "rrck"

// chunkVersion is the chunk container version.
const chunkVersion = 1

// Chunk kinds.
const (
	// KindFull marks a chunk whose body is the complete payload.
	KindFull = 0
	// KindDelta marks a chunk whose body is a delta against a parent chunk's
	// resolved payload; the parent ID follows the header.
	KindDelta = 1
)

// chunkHeaderLen is the fixed prefix of every chunk: magic, version, kind.
const chunkHeaderLen = len(chunkMagic) + 2

// MaxChunkLen bounds one decoded chunk, the same order as the serve tier's
// largest checkpoint payloads; a length prefix beyond it is rejected before
// any allocation.
const MaxChunkLen = 64 << 20

// Chunk is one decoded chunk: a full payload, or a delta plus the parent it
// applies to.
type Chunk struct {
	Kind   int
	Parent uint64 // chunk ID of the parent (delta chunks only)
	Body   []byte // full payload (KindFull) or delta ops (KindDelta)
}

// Ref names one committed chunk: its content address and the length of the
// delta chain behind it (0 for a full chunk).
type Ref struct {
	ID    uint64
	Chain int
}

// Hash64 is the chunk content address: FNV-1a 64 with the MurmurHash3 fmix64
// avalanche finalizer — the same recipe as the serve tier's tenant ring hash,
// stable across processes and architectures. The finalizer matters here for
// the same reason it does on the ring: raw FNV-1a barely mixes a trailing
// byte, and chunk payloads that differ only near the end (a round counter, an
// appended decision) must land on independent addresses.
func Hash64(data []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(data) // infallible per hash.Hash contract
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// EncodeFull encodes a full chunk around payload and returns the encoded
// bytes with their content address.
func EncodeFull(payload []byte) ([]byte, uint64) {
	buf := make([]byte, 0, chunkHeaderLen+len(payload))
	buf = append(buf, chunkMagic...)
	buf = append(buf, chunkVersion, KindFull)
	buf = append(buf, payload...)
	return buf, Hash64(buf)
}

// EncodeDelta encodes a delta chunk: ops against the resolved payload of the
// parent chunk named by parentID. The content address covers the parent ID,
// so the same ops against different parents are distinct chunks.
func EncodeDelta(parentID uint64, ops []byte) ([]byte, uint64) {
	buf := make([]byte, 0, chunkHeaderLen+8+len(ops))
	buf = append(buf, chunkMagic...)
	buf = append(buf, chunkVersion, KindDelta)
	var p [8]byte
	binary.BigEndian.PutUint64(p[:], parentID)
	buf = append(buf, p[:]...)
	buf = append(buf, ops...)
	return buf, Hash64(buf)
}

// DecodeChunk parses one encoded chunk. It never panics on arbitrary bytes;
// malformed input is an error. The body aliases data.
func DecodeChunk(data []byte) (*Chunk, error) {
	if len(data) > MaxChunkLen {
		return nil, fmt.Errorf("ckptstore: chunk of %d bytes exceeds the %d-byte bound", len(data), MaxChunkLen)
	}
	if len(data) < chunkHeaderLen || string(data[:len(chunkMagic)]) != chunkMagic {
		return nil, fmt.Errorf("ckptstore: not a chunk (bad magic)")
	}
	if v := data[len(chunkMagic)]; v != chunkVersion {
		return nil, fmt.Errorf("ckptstore: chunk version %d, want %d", v, chunkVersion)
	}
	kind := int(data[len(chunkMagic)+1])
	body := data[chunkHeaderLen:]
	switch kind {
	case KindFull:
		return &Chunk{Kind: KindFull, Body: body}, nil
	case KindDelta:
		if len(body) < 8 {
			return nil, fmt.Errorf("ckptstore: delta chunk truncated before parent id")
		}
		return &Chunk{
			Kind:   KindDelta,
			Parent: binary.BigEndian.Uint64(body[:8]),
			Body:   body[8:],
		}, nil
	default:
		return nil, fmt.Errorf("ckptstore: unknown chunk kind %d", kind)
	}
}

// VerifyChunk checks that encoded chunk bytes decode and carry the claimed
// content address. Bundles and stores use it so a corrupted or mislabeled
// chunk is refused at the door rather than resolved into tenant state.
func VerifyChunk(id uint64, data []byte) error {
	if _, err := DecodeChunk(data); err != nil {
		return err
	}
	if got := Hash64(data); got != id {
		return fmt.Errorf("ckptstore: chunk claims id %016x, content hashes to %016x", id, got)
	}
	return nil
}
