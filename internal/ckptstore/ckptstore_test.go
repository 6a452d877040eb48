package ckptstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestChunkRoundTrip(t *testing.T) {
	payload := []byte(`{"name":"t0","round":42}`)
	enc, id := EncodeFull(payload)
	if err := VerifyChunk(id, enc); err != nil {
		t.Fatalf("VerifyChunk(full): %v", err)
	}
	c, err := DecodeChunk(enc)
	if err != nil {
		t.Fatalf("DecodeChunk(full): %v", err)
	}
	if c.Kind != KindFull || !bytes.Equal(c.Body, payload) {
		t.Fatalf("full chunk round-trip mismatch: kind=%d body=%q", c.Kind, c.Body)
	}

	ops := MakeDelta(payload, []byte(`{"name":"t0","round":43}`))
	encD, idD := EncodeDelta(id, ops)
	if err := VerifyChunk(idD, encD); err != nil {
		t.Fatalf("VerifyChunk(delta): %v", err)
	}
	d, err := DecodeChunk(encD)
	if err != nil {
		t.Fatalf("DecodeChunk(delta): %v", err)
	}
	if d.Kind != KindDelta || d.Parent != id || !bytes.Equal(d.Body, ops) {
		t.Fatalf("delta chunk round-trip mismatch: kind=%d parent=%x", d.Kind, d.Parent)
	}
}

func TestChunkDecodeRejectsMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("rr"),
		[]byte("nope" + "\x01\x00"),
		[]byte("rrck\x02\x00"),         // bad version
		[]byte("rrck\x01\x07"),         // unknown kind
		[]byte("rrck\x01\x01\x00\x01"), // delta truncated before parent id
	}
	for i, data := range cases {
		if _, err := DecodeChunk(data); err == nil {
			t.Errorf("case %d: DecodeChunk accepted malformed input %q", i, data)
		}
	}
	enc, id := EncodeFull([]byte("x"))
	if err := VerifyChunk(id+1, enc); err == nil {
		t.Error("VerifyChunk accepted a wrong content address")
	}
}

func TestHash64Stable(t *testing.T) {
	// The address must be stable across processes: pin one known vector.
	if got := Hash64([]byte("rrsched")); got != Hash64([]byte("rrsched")) {
		t.Fatal("Hash64 not deterministic")
	}
	if Hash64([]byte("a")) == Hash64([]byte("b")) {
		t.Fatal("Hash64 collides on trivial inputs")
	}
	// Payloads differing only in the trailing byte must land far apart.
	a := Hash64([]byte(`{"round":1}`))
	b := Hash64([]byte(`{"round":2}`))
	if a == b {
		t.Fatal("Hash64 collides on trailing-byte edit")
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	cases := []struct{ parent, target string }{
		{"", ""},
		{"", "abc"},
		{"abc", ""},
		{"abc", "abc"},
		{`{"round":1,"queued":[]}`, `{"round":2,"queued":[]}`},
		{`{"round":1,"queued":[]}`, `{"round":1,"queued":["j1"]}`},
		{"aaaa", "aa"},
		{"aa", "aaaa"},
		{"xyz", "pqr"},
	}
	for _, c := range cases {
		ops := MakeDelta([]byte(c.parent), []byte(c.target))
		got, err := ApplyDelta([]byte(c.parent), ops)
		if err != nil {
			t.Fatalf("ApplyDelta(%q→%q): %v", c.parent, c.target, err)
		}
		if string(got) != c.target {
			t.Fatalf("delta round-trip %q→%q produced %q", c.parent, c.target, got)
		}
	}
}

func TestApplyDeltaRejectsMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x80},             // truncated uvarint
		{0x05},             // missing suffix length
		{0x05, 0x05},       // prefix+suffix beyond parent
		{0x02, 0x02, 0x41}, // prefix+suffix beyond 3-byte parent
	}
	for i, ops := range cases {
		if _, err := ApplyDelta([]byte("abc"), ops); err == nil {
			t.Errorf("case %d: ApplyDelta accepted malformed ops", i)
		}
	}
}

func TestStorePutDedupeAndChain(t *testing.T) {
	s, err := Open(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	base := []byte(`{"name":"t0","round":0,"queued":["a","b","c"]}`)
	r0, err := s.PutFull(base)
	if err != nil {
		t.Fatal(err)
	}
	if !r0.Wrote || r0.Ref.Chain != 0 {
		t.Fatalf("first put: %+v", r0)
	}
	// Identical bytes dedupe.
	r0b, err := s.PutFull(base)
	if err != nil {
		t.Fatal(err)
	}
	if r0b.Wrote || r0b.Ref != r0.Ref {
		t.Fatalf("dedupe put: %+v", r0b)
	}

	// Successive small edits chain as deltas until the bound folds them.
	parent := r0.Ref
	folded := false
	for i := 1; i <= 5; i++ {
		payload := []byte(fmt.Sprintf(`{"name":"t0","round":%d,"queued":["a","b","c"]}`, i))
		res, err := s.Put(payload, parent)
		if err != nil {
			t.Fatal(err)
		}
		got, chain, err := s.Resolve(res.Ref.ID)
		if err != nil {
			t.Fatalf("resolve after put %d: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("resolve after put %d: got %q want %q", i, got, payload)
		}
		if chain != res.Ref.Chain {
			t.Fatalf("put %d: walked chain %d, ref says %d", i, chain, res.Ref.Chain)
		}
		if res.Folded {
			folded = true
			if res.Ref.Chain != 0 || res.Delta {
				t.Fatalf("folded put %d is not a full chunk: %+v", i, res)
			}
		} else if i <= 3 && (!res.Delta || res.Ref.Chain != i) {
			t.Fatalf("put %d expected delta chain %d: %+v", i, i, res)
		}
		if res.Ref.Chain > 3 {
			t.Fatalf("put %d exceeded the chain bound: %+v", i, res)
		}
		parent = res.Ref
	}
	if !folded {
		t.Fatal("chain bound of 3 never folded across 5 delta puts")
	}
}

func TestStoreGCKeepsClosureRemovesOrphans(t *testing.T) {
	s, err := Open(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	r0, _ := s.PutFull([]byte("base-payload-with-some-length"))
	r1, err := s.Put([]byte("base-payload-with-more-length"), r0.Ref)
	if err != nil {
		t.Fatal(err)
	}
	orphan, _ := s.PutFull([]byte("stranded by a crash before the manifest rename"))
	removed, err := s.GC([]uint64{r1.Ref.ID})
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("GC removed %d chunks, want 1", removed)
	}
	if s.Has(orphan.Ref.ID) {
		t.Fatal("orphan chunk survived GC")
	}
	// The delta's parent is in the closure and must survive.
	if !s.Has(r0.Ref.ID) || !s.Has(r1.Ref.ID) {
		t.Fatal("GC removed live chunks")
	}
	got, _, err := s.Resolve(r1.Ref.ID)
	if err != nil || string(got) != "base-payload-with-more-length" {
		t.Fatalf("resolve after GC: %q, %v", got, err)
	}
}

func TestStoreRejectsCorruptChunk(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := s.PutFull([]byte("payload"))
	// Flip one payload byte inside the pack: the record framing and chunk
	// header stay valid, so only the content address can catch it.
	path := filepath.Join(dir, "pack-00000.pack")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[recHeaderLen+chunkHeaderLen+1] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Resolve(res.Ref.ID); err == nil {
		t.Fatal("Resolve accepted a chunk whose content no longer matches its address")
	}
	_ = s.Close()
	reopened, err := Open(dir, 0)
	if err != nil {
		t.Fatalf("reopen over a corrupt body (bodies are verified on read, not at open): %v", err)
	}
	defer reopened.Close()
	if _, _, err := reopened.Resolve(res.Ref.ID); err == nil {
		t.Fatal("Resolve after reopen accepted a chunk whose content no longer matches its address")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		Schema:         ManifestSchema,
		Shard:          1,
		Shards:         4,
		Round:          17,
		PlacementEpoch: 2,
		Tenants: []TenantRef{
			{Name: "zeta", Chunk: FormatChunkID(0xfeed), Chain: 2},
			{Name: "alpha", Chunk: FormatChunkID(0xbeef)},
			{Name: "cold", Chunk: FormatChunkID(0xc01d), Evicted: true, Epoch: 3, Class: "batch"},
		},
	}
	enc, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 17 || got.PlacementEpoch != 2 || len(got.Tenants) != 3 {
		t.Fatalf("manifest round-trip: %+v", got)
	}
	if got.Tenants[0].Name != "alpha" || got.Tenants[2].Name != "zeta" {
		t.Fatalf("manifest tenants not sorted: %+v", got.Tenants)
	}
	enc2, err := EncodeManifest(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("manifest re-encode is not byte-identical")
	}
	roots, err := got.Roots()
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 3 {
		t.Fatalf("roots: %v", roots)
	}
}

func TestManifestValidation(t *testing.T) {
	valid := func() *Manifest {
		return &Manifest{
			Schema: ManifestSchema, Shard: 0, Shards: 1, Round: 5,
			Tenants: []TenantRef{{Name: "a", Chunk: FormatChunkID(1)}},
		}
	}
	cases := []struct {
		name string
		mut  func(*Manifest)
	}{
		{"schema", func(m *Manifest) { m.Schema = "rrckpt/v0" }},
		{"shard range", func(m *Manifest) { m.Shard = 1 }},
		{"negative round", func(m *Manifest) { m.Round = -1 }},
		{"empty name", func(m *Manifest) { m.Tenants[0].Name = "" }},
		{"bad chunk hex", func(m *Manifest) { m.Tenants[0].Chunk = "zz" }},
		{"negative chain", func(m *Manifest) { m.Tenants[0].Chain = -1 }},
		{"epoch past round", func(m *Manifest) { m.Tenants[0].Evicted = true; m.Tenants[0].Epoch = 9 }},
		{"evicted fields without flag", func(m *Manifest) { m.Tenants[0].Class = "batch" }},
		{"duplicate names", func(m *Manifest) {
			m.Tenants = append(m.Tenants, TenantRef{Name: "a", Chunk: FormatChunkID(2)})
		}},
	}
	for _, c := range cases {
		m := valid()
		c.mut(m)
		if _, err := EncodeManifest(m); err == nil {
			t.Errorf("%s: EncodeManifest accepted an invalid manifest", c.name)
		}
	}
	if _, err := DecodeManifest([]byte(`{`)); err == nil {
		t.Error("DecodeManifest accepted truncated JSON")
	}
}

func TestDecLogAppendReadRotate(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDecLog(dir, 64) // tiny segments to force rotation
	if err != nil {
		t.Fatal(err)
	}
	for r := int64(0); r < 20; r++ {
		tenant := fmt.Sprintf("t%d", r%3)
		if err := l.Append(tenant, r, []byte(fmt.Sprintf(`{"Round":%d}`, r))); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := l.ReadTenant("t1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 7 {
		t.Fatalf("t1 has %d records, want 7", len(recs))
	}
	for i, rec := range recs {
		want := int64(3*i + 1)
		if rec.Round != want || string(rec.Payload) != fmt.Sprintf(`{"Round":%d}`, want) {
			t.Fatalf("t1 record %d: %+v", i, rec)
		}
	}
	segs, err := l.segs.list()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("64-byte segments never rotated: %v", segs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and keep appending; history must be intact.
	l2, err := OpenDecLog(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append("t1", 22, []byte(`{"Round":22}`)); err != nil {
		t.Fatal(err)
	}
	recs, err = l2.ReadTenant("t1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 8 || recs[7].Round != 22 {
		t.Fatalf("after reopen t1 has %d records (last %+v)", len(recs), recs[len(recs)-1])
	}
	if l2.Bytes() <= 0 {
		t.Fatal("Bytes() not tracking log size")
	}
	_ = l2.Close()
}

func TestDecLogTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDecLog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append("good", 1, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn record at the tail.
	path := filepath.Join(dir, "seg-00000.log")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x04, 't', 'o'}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	l2, err := OpenDecLog(dir, 0)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	recs, err := l2.ReadTenant("good")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Round != 1 {
		t.Fatalf("torn-tail recovery lost the committed record: %+v", recs)
	}
	if err := l2.Append("good", 2, []byte("after")); err != nil {
		t.Fatal(err)
	}
	recs, _ = l2.ReadTenant("good")
	if len(recs) != 2 {
		t.Fatalf("append after torn-tail recovery: %+v", recs)
	}
	_ = l2.Close()
}

func TestDecLogTruncateFrom(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDecLog(dir, 48)
	if err != nil {
		t.Fatal(err)
	}
	for r := int64(0); r < 10; r++ {
		if err := l.Append("t", r, []byte(fmt.Sprintf("p%d", r))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.TruncateFrom(6); err != nil {
		t.Fatal(err)
	}
	recs, err := l.ReadTenant("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("TruncateFrom(6) left %d records", len(recs))
	}
	for i, rec := range recs {
		if rec.Round != int64(i) {
			t.Fatalf("record %d has round %d", i, rec.Round)
		}
	}
	// Appends continue cleanly after a truncate.
	if err := l.Append("t", 6, []byte("again")); err != nil {
		t.Fatal(err)
	}
	recs, _ = l.ReadTenant("t")
	if len(recs) != 7 || string(recs[6].Payload) != "again" {
		t.Fatalf("append after truncate: %+v", recs)
	}
	_ = l.Close()
}

func TestBundleRoundTrip(t *testing.T) {
	manifest, err := EncodeManifest(&Manifest{
		Schema: ManifestSchema, Shard: 0, Shards: 2, Round: 3,
		Tenants: []TenantRef{{Name: "a", Chunk: FormatChunkID(1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	encA, idA := EncodeFull([]byte("payload-a"))
	ops := MakeDelta([]byte("payload-a"), []byte("payload-b"))
	encB, idB := EncodeDelta(idA, ops)
	enc, err := EncodeBundle(manifest, map[uint64][]byte{idA: encA, idB: encB})
	if err != nil {
		t.Fatal(err)
	}
	if !IsBundle(enc) {
		t.Fatal("encoded bundle fails the sniff")
	}
	if IsBundle(manifest) {
		t.Fatal("JSON sniffs as a bundle")
	}
	b, err := DecodeBundle(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Manifest, manifest) || len(b.Chunks) != 2 {
		t.Fatalf("bundle round-trip: %d chunks", len(b.Chunks))
	}
	if !bytes.Equal(b.Chunks[idA], encA) || !bytes.Equal(b.Chunks[idB], encB) {
		t.Fatal("bundle chunk bytes differ")
	}

	// A corrupted chunk is refused at decode.
	bad := append([]byte(nil), enc...)
	bad[len(bad)-1] ^= 0xff
	if _, err := DecodeBundle(bad); err == nil {
		t.Fatal("DecodeBundle accepted a corrupted chunk")
	}
	if _, err := DecodeBundle(enc[:len(enc)-4]); err == nil {
		t.Fatal("DecodeBundle accepted a truncated bundle")
	}
}

func TestMemStorePutResolvePrune(t *testing.T) {
	m := NewMemStore(2)
	r0, err := m.Put([]byte("state-zero-with-length"), Ref{})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := m.Put([]byte("state-one!-with-length"), r0.Ref)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Delta || r1.Ref.Chain != 1 {
		t.Fatalf("expected delta: %+v", r1)
	}
	got, _, err := m.Resolve(r1.Ref.ID)
	if err != nil || string(got) != "state-one!-with-length" {
		t.Fatalf("resolve: %q, %v", got, err)
	}
	// Put against a pruned parent falls back to a self-contained full chunk.
	m.Prune(map[uint64]bool{})
	if m.Len() != 0 {
		t.Fatalf("prune left %d chunks", m.Len())
	}
	r2, err := m.Put([]byte("state-two-with-length!"), r1.Ref)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Delta {
		t.Fatalf("put against pruned parent produced a delta: %+v", r2)
	}
	got, _, err = m.Resolve(r2.Ref.ID)
	if err != nil || string(got) != "state-two-with-length!" {
		t.Fatalf("resolve after prune: %q, %v", got, err)
	}
	// Add verifies content addresses.
	enc, id := EncodeFull([]byte("x"))
	if err := m.Add(id+1, enc); err == nil {
		t.Fatal("Add accepted a mislabeled chunk")
	}
	if err := m.Add(id, enc); err != nil {
		t.Fatal(err)
	}
}
