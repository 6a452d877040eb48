package ckptstore

import (
	"bytes"
	"testing"
)

// FuzzDecodeManifest pins that arbitrary bytes never panic the manifest
// decoder, and that anything it accepts re-encodes canonically.
func FuzzDecodeManifest(f *testing.F) {
	seed, err := EncodeManifest(&Manifest{
		Schema: ManifestSchema, Shard: 1, Shards: 4, Round: 9, PlacementEpoch: 1,
		Tenants: []TenantRef{
			{Name: "a", Chunk: FormatChunkID(0xbeef), Chain: 2},
			{Name: "b", Chunk: FormatChunkID(0xc01d), Evicted: true, Epoch: 3, Class: "batch"},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"schema":"rrckpt/v1","shard":0,"shards":1,"round":0}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		enc, err := EncodeManifest(m)
		if err != nil {
			t.Fatalf("accepted manifest fails to re-encode: %v", err)
		}
		m2, err := DecodeManifest(enc)
		if err != nil {
			t.Fatalf("canonical re-encoding fails to decode: %v", err)
		}
		enc2, err := EncodeManifest(m2)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatal("manifest canonical encoding is not a fixed point")
		}
	})
}

// FuzzChunkStore pins that the chunk container and delta codec never panic on
// arbitrary bytes, and that a store fed an arbitrary chunk file under a
// committed ID either refuses it or resolves without reading outside the
// store's own committed state.
func FuzzChunkStore(f *testing.F) {
	full, _ := EncodeFull([]byte(`{"round":1}`))
	ops := MakeDelta([]byte(`{"round":1}`), []byte(`{"round":2}`))
	delta, _ := EncodeDelta(Hash64(full), ops)
	f.Add(full, []byte(`{"round":1}`))
	f.Add(delta, ops)
	f.Add([]byte("rrck\x01\x01\x00\x00\x00\x00\x00\x00\x00\x00"), []byte{0x80})
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, chunk, ops []byte) {
		c, err := DecodeChunk(chunk)
		if err == nil && c.Kind == KindFull {
			// A decodable full chunk must verify only under its true address.
			if err := VerifyChunk(Hash64(chunk), chunk); err != nil {
				t.Fatalf("chunk rejects its own content address: %v", err)
			}
		}
		// The delta codec must error, never panic, on arbitrary ops.
		if out, err := ApplyDelta(chunk, ops); err == nil {
			if len(out) > MaxChunkLen {
				t.Fatalf("ApplyDelta produced %d bytes past the bound", len(out))
			}
		}
		// An in-memory store must refuse mislabeled chunks and resolve only
		// committed state.
		m := NewMemStore(0)
		if err := m.Add(Hash64(chunk), chunk); err == nil {
			if _, _, err := m.Resolve(Hash64(chunk)); err != nil {
				// A delta whose parent is absent resolves to an error — fine;
				// the invariant is no panic and no fabricated payload.
				_ = err
			}
		}
	})
}

// FuzzDecodeBundle pins that arbitrary bytes never panic the bundle decoder
// and that every chunk in an accepted bundle verifies.
func FuzzDecodeBundle(f *testing.F) {
	manifest, _ := EncodeManifest(&Manifest{Schema: ManifestSchema, Shard: 0, Shards: 1, Round: 1})
	enc1, id1 := EncodeFull([]byte("a"))
	bundle, err := EncodeBundle(manifest, map[uint64][]byte{id1: enc1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bundle)
	f.Add([]byte("rrcb\x01"))
	f.Add([]byte(`{"schema":"rrserve-state/v1"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBundle(data)
		if err != nil {
			return
		}
		for id, chunk := range b.Chunks {
			if err := VerifyChunk(id, chunk); err != nil {
				t.Fatalf("accepted bundle holds unverified chunk: %v", err)
			}
		}
	})
}

// FuzzDiskStore drives the pack store with an arbitrary sequence of puts, GCs
// and reopens, checked step by step against the in-memory pool: the same
// PutResults, the same GC removals, the same committed set, and every chunk
// resolving to the same payload (or, for an orphan whose parent is gone,
// failing on both). Packs rotate every 128 bytes, so sequences cross pack
// boundaries, compact the tail and reopen over sealed packs. A reopen
// re-indexes dead records GC has not yet reclaimed; each must be a chunk put
// earlier, and the pool takes it back as the orphan it is.
func FuzzDiskStore(f *testing.F) {
	f.Add([]byte{0, 5, 'h', 'e', 'l', 'l', 'o', 1, 3, 'a', 'b', 'c', 2, 1, 3, 0, 4, 'w', 'x', 'y', 'z'})
	f.Add([]byte{0, 30, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 9, 2, 0, 3})
	f.Add([]byte{3, 2, 0, 0, 1, 1, 2, 255, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		dir := t.TempDir()
		s, err := openStore(dir, 0, 128)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = s.Close() }()
		model := NewMemStore(0)
		var refs []Ref
		everPut := map[uint64]bool{}
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		for steps := 0; len(ops) > 0 && steps < 64; steps++ {
			switch next() % 4 {
			case 0, 1:
				n := int(next() % 48)
				payload := make([]byte, n)
				for i := range payload {
					payload[i] = next()
				}
				parent := Ref{}
				if sel := next(); len(refs) > 0 && sel%2 == 1 {
					parent = refs[int(sel/2)%len(refs)]
				}
				got, err := s.Put(payload, parent)
				if err != nil {
					t.Fatalf("disk put: %v", err)
				}
				want, err := model.Put(payload, parent)
				if err != nil {
					t.Fatalf("pool put: %v", err)
				}
				if got != want {
					t.Fatalf("put diverges: disk %+v, pool %+v", got, want)
				}
				refs = append(refs, got.Ref)
				everPut[got.Ref.ID] = true
			case 2:
				mask := next()
				var roots []uint64
				for i, r := range refs {
					if mask>>(i%8)&1 == 1 {
						roots = append(roots, r.ID)
					}
				}
				removed, err := s.GC(roots)
				if err != nil {
					t.Fatalf("disk GC: %v", err)
				}
				live, err := model.Closure(roots)
				if err != nil {
					t.Fatalf("pool closure: %v", err)
				}
				before := model.Len()
				model.Prune(live)
				if removed != before-model.Len() {
					t.Fatalf("GC removed %d chunks, pool pruned %d", removed, before-model.Len())
				}
				kept := refs[:0]
				for _, r := range refs {
					if live[r.ID] {
						kept = append(kept, r)
					}
				}
				refs = kept
			case 3:
				if err := s.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
				if s, err = openStore(dir, 0, 128); err != nil {
					t.Fatalf("reopen: %v", err)
				}
				ids, err := s.List()
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range ids {
					if _, ok := model.Get(id); ok {
						continue
					}
					if !everPut[id] {
						t.Fatalf("reopen indexes chunk %016x that was never put", id)
					}
					data, err := s.get(id)
					if err != nil {
						t.Fatalf("reading re-indexed dead chunk %016x: %v", id, err)
					}
					if err := model.Add(id, data); err != nil {
						t.Fatalf("pool refuses re-indexed dead chunk %016x: %v", id, err)
					}
				}
			}
			ids, err := s.List()
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != model.Len() {
				t.Fatalf("disk store lists %d chunks, pool holds %d", len(ids), model.Len())
			}
			for _, id := range ids {
				if _, ok := model.Get(id); !ok {
					t.Fatalf("chunk %016x on disk but not in the pool", id)
				}
				got, _, err := s.Resolve(id)
				want, _, werr := model.Resolve(id)
				if (err != nil) != (werr != nil) {
					t.Fatalf("chunk %016x resolves with error %v on disk, %v in the pool", id, err, werr)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("chunk %016x resolves to %q on disk, %q in the pool", id, got, want)
				}
			}
		}
	})
}
