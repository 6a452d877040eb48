package ckptstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// packRecord is one record as a test reads it back from a pack file.
type packRecord struct {
	id       uint64
	off, end int64
}

// readPackRecords parses every complete record of a pack file.
func readPackRecords(t *testing.T, path string) []packRecord {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []packRecord
	for off := int64(0); off+recHeaderLen <= int64(len(data)); {
		n := int64(binary.BigEndian.Uint32(data[off:]))
		end := off + recHeaderLen + n
		if end > int64(len(data)) {
			break
		}
		recs = append(recs, packRecord{id: binary.BigEndian.Uint64(data[off+4:]), off: off, end: end})
		off = end
	}
	return recs
}

// packPaths lists a store directory's pack files in segment order.
func packPaths(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "pack-*.pack"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	return paths
}

// readDir snapshots every file of a flat directory.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

func writeDir(t *testing.T, dir string, files map[string][]byte) {
	t.Helper()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// fillStore puts n distinct payloads, every fourth a full chunk and the rest
// deltas chained on the previous put, and returns each put's ref with the
// payload it must resolve to.
func fillStore(t *testing.T, s *Store, n int, tag string) ([]Ref, map[uint64][]byte) {
	t.Helper()
	var refs []Ref
	want := map[uint64][]byte{}
	parent := Ref{}
	for i := 0; i < n; i++ {
		payload := []byte(fmt.Sprintf(`{"tenant":"%s-%d","round":%d,"queued":["a","b","c","d"],"pad":"%s"}`, tag, i/4, i, strings.Repeat("x", i%7)))
		if i%4 == 0 {
			parent = Ref{}
		}
		res, err := s.Put(payload, parent)
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		parent = res.Ref
		refs = append(refs, res.Ref)
		want[res.Ref.ID] = payload
	}
	return refs, want
}

// checkResolves asserts that every expected chunk resolves to its payload.
func checkResolves(t *testing.T, s *Store, want map[uint64][]byte, state string) {
	t.Helper()
	for id, payload := range want {
		got, _, err := s.Resolve(id)
		if err != nil {
			t.Fatalf("%s: resolving %016x: %v", state, id, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%s: chunk %016x resolved to %q, want %q", state, id, got, payload)
		}
	}
}

func listSet(t *testing.T, s *Store) map[uint64]bool {
	t.Helper()
	ids, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		out[id] = true
	}
	return out
}

func TestChunkLocPacking(t *testing.T) {
	cases := []struct {
		slot int
		off  int64
		n    int
	}{
		{0, 0, chunkHeaderLen},
		{1, DefaultSegmentBytes - 1, MaxChunkLen},
		{maxPackSlot, 1<<locOffBits - 1, 1<<locLenBits - 1},
	}
	for _, c := range cases {
		l := makeLoc(c.slot, c.off, c.n)
		if l.slot() != c.slot || l.off() != c.off || l.n() != c.n {
			t.Fatalf("makeLoc(%d, %d, %d) unpacks to (%d, %d, %d)", c.slot, c.off, c.n, l.slot(), l.off(), l.n())
		}
	}
}

// TestStoreOpenCreatesNothing pins the lazy layout: Open touches no file, not
// even the directory, and the first Put creates exactly one pack.
func TestStoreOpenCreatesNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chunks")
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("Open created the chunk dir (stat err %v)", err)
	}
	if ids, _ := s.List(); len(ids) != 0 || s.Has(1) {
		t.Fatalf("empty store lists %v", ids)
	}
	if _, err := s.GC(nil); err != nil {
		t.Fatalf("GC on an empty store: %v", err)
	}
	res, err := s.PutFull([]byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	if got := packPaths(t, dir); len(got) != 1 || filepath.Base(got[0]) != "pack-00000.pack" {
		t.Fatalf("first put left packs %v", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before := readDir(t, dir)
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if after := readDir(t, dir); len(after) != len(before) {
		t.Fatalf("reopen changed the dir: %d files, then %d", len(before), len(after))
	}
	if !s2.Has(res.Ref.ID) {
		t.Fatal("reopened store lost the chunk")
	}
}

// TestStoreRefusesLooseChunkFiles pins the one-durable-format rule: a chunk
// dir from the older one-file-per-chunk layout is refused by name, not read.
func TestStoreRefusesLooseChunkFiles(t *testing.T) {
	for _, name := range []string{"00000000deadbeef.chunk", "00000000deadbeef.chunk.tmp"} {
		dir := t.TempDir()
		enc, _ := EncodeFull([]byte("legacy"))
		if err := os.WriteFile(filepath.Join(dir, name), enc, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir, 0)
		if err == nil || !strings.Contains(err.Error(), "one-file-per-chunk") {
			t.Fatalf("Open over a loose %s: err %v, want a refusal naming the older layout", name, err)
		}
	}
}

// TestStoreReadAfterCloseErrors pins that a closed store answers reads with an
// error rather than indexing into its released pack table.
func TestStoreReadAfterCloseErrors(t *testing.T) {
	s, err := openStore(t.TempDir(), 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	refs, _ := fillStore(t, s, 8, "closed")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Has(refs[0].ID) {
		t.Fatal("closed store still reports a chunk present")
	}
	if _, _, err := s.Resolve(refs[7].ID); err == nil {
		t.Fatal("closed store resolved a chunk")
	}
}

// TestStoreReopenRebuildsIndex writes across several rotated packs, reopens,
// and checks that the rebuilt index serves every chunk and still dedupes.
func TestStoreReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := openStore(dir, 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	refs, want := fillStore(t, s, 24, "r")
	if len(packPaths(t, dir)) < 3 {
		t.Fatalf("256-byte packs never rotated: %v", packPaths(t, dir))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := openStore(dir, 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkResolves(t, s2, want, "after reopen")
	if got := listSet(t, s2); len(got) != len(want) {
		t.Fatalf("reopened store lists %d chunks, want %d", len(got), len(want))
	}
	again, err := s2.Put(want[refs[5].ID], refs[4])
	if err != nil {
		t.Fatal(err)
	}
	if again.Wrote || again.Ref != refs[5] {
		t.Fatalf("re-put after reopen did not dedupe: %+v", again)
	}
}

// TestPackTornTailEveryOffset enumerates the crash states of an append: the
// last pack cut at every byte offset inside its last few records. Open must
// keep exactly the prefix of complete records, truncate the file to it, and
// keep appending cleanly.
func TestPackTornTailEveryOffset(t *testing.T) {
	src := t.TempDir()
	s, err := openStore(src, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	_, want := fillStore(t, s, 20, "torn")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	files := readDir(t, src)
	paths := packPaths(t, src)
	if len(paths) < 2 {
		t.Fatalf("fixture needs a sealed pack and a tail: %v", paths)
	}
	last := filepath.Base(paths[len(paths)-1])
	recs := readPackRecords(t, paths[len(paths)-1])
	if len(recs) < 3 {
		t.Fatalf("tail pack holds %d records, want at least 3", len(recs))
	}
	sealed := map[uint64]bool{}
	for _, p := range paths[:len(paths)-1] {
		for _, r := range readPackRecords(t, p) {
			sealed[r.id] = true
		}
	}
	dir := t.TempDir()
	writeDir(t, dir, files)
	full := files[last]
	for k := recs[len(recs)-3].off; k <= int64(len(full)); k++ {
		if err := os.WriteFile(filepath.Join(dir, last), full[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := openStore(dir, 0, 512)
		if err != nil {
			t.Fatalf("cut at %d: Open refused a torn tail: %v", k, err)
		}
		keep := map[uint64][]byte{}
		boundary := int64(0)
		for id := range sealed {
			keep[id] = want[id]
		}
		for _, r := range recs {
			if r.end <= k {
				keep[r.id] = want[r.id]
				boundary = r.end
			}
		}
		state := fmt.Sprintf("cut at %d", k)
		if got := listSet(t, st); len(got) != len(keep) {
			t.Fatalf("%s: store lists %d chunks, want the %d of the complete prefix", state, len(got), len(keep))
		}
		checkResolves(t, st, keep, state)
		if fi, err := os.Stat(filepath.Join(dir, last)); err != nil || fi.Size() != boundary {
			t.Fatalf("%s: tail not truncated to the record boundary %d (stat %v, %v)", state, boundary, fi, err)
		}
		res, err := st.PutFull([]byte(fmt.Sprintf("after crash at %d", k)))
		if err != nil {
			t.Fatalf("%s: put after recovery: %v", state, err)
		}
		if _, _, err := st.Resolve(res.Ref.ID); err != nil {
			t.Fatalf("%s: resolve after recovery: %v", state, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		// The recovery put landed in a pack past the tail when the tail was
		// full; drop it so the next cut starts from the same file set.
		for _, p := range packPaths(t, dir) {
			if _, ok := files[filepath.Base(p)]; !ok {
				if err := os.Remove(p); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestPackSealedDamageRefused pins the other half of the crash rule: a pack
// that is not the last was sealed by a rotation, so a malformed or truncated
// record in it is damage, not a torn append, and Open refuses, as the
// decision log does.
func TestPackSealedDamageRefused(t *testing.T) {
	src := t.TempDir()
	s, err := openStore(src, 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 16, "sealed")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	files := readDir(t, src)
	first := filepath.Base(packPaths(t, src)[0])
	damage := map[string]func([]byte) []byte{
		"bad length": func(b []byte) []byte { binary.BigEndian.PutUint32(b, MaxChunkLen+1); return b },
		"bad magic":  func(b []byte) []byte { b[recHeaderLen] ^= 0xff; return b },
		"bad kind":   func(b []byte) []byte { b[recHeaderLen+chunkHeaderLen-1] = 9; return b },
		"truncated":  func(b []byte) []byte { return b[:len(b)-1] },
	}
	for name, mut := range damage {
		dir := t.TempDir()
		writeDir(t, dir, files)
		data := mut(append([]byte(nil), files[first]...))
		if err := os.WriteFile(filepath.Join(dir, first), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if st, err := openStore(dir, 0, 256); err == nil {
			_ = st.Close()
			t.Fatalf("%s: Open accepted damage in a sealed pack", name)
		}
	}
}

// TestPackGCCompactsAndCollects checks GC end to end: dead chunks leave the
// index at once, every pack left on disk is more than half live, live chunks
// (delta parents included) survive a reopen, and the dead records a reopen
// re-indexes are dropped again by the next GC without rewriting a pack.
func TestPackGCCompactsAndCollects(t *testing.T) {
	dir := t.TempDir()
	s, err := openStore(dir, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	refs, want := fillStore(t, s, 24, "gc")
	roots := []uint64{refs[3].ID, refs[13].ID, refs[23].ID}
	live, err := s.Closure(roots)
	if err != nil {
		t.Fatal(err)
	}
	removed, err := s.GC(roots)
	if err != nil {
		t.Fatal(err)
	}
	if removed != len(want)-len(live) {
		t.Fatalf("GC removed %d chunks, want %d", removed, len(want)-len(live))
	}
	if got := listSet(t, s); len(got) != len(live) {
		t.Fatalf("store lists %d chunks after GC, want %d live", len(got), len(live))
	}
	keep := map[uint64][]byte{}
	for id := range live {
		keep[id] = want[id]
	}
	checkResolves(t, s, keep, "after GC")
	checkPacksMostlyLive(t, dir, live)
	// Nothing new is dead: a second GC removes nothing and rewrites nothing.
	before := readDir(t, dir)
	if removed, err := s.GC(roots); err != nil || removed != 0 {
		t.Fatalf("second GC: removed %d, err %v", removed, err)
	}
	if after := readDir(t, dir); !sameFiles(before, after) {
		t.Fatal("a GC with nothing newly dead rewrote packs")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := openStore(dir, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	listed := listSet(t, s2)
	for id := range live {
		if !listed[id] {
			t.Fatalf("reopened store lost live chunk %016x", id)
		}
	}
	for id := range listed {
		if _, ok := want[id]; !ok {
			t.Fatalf("reopened store lists chunk %016x that was never put", id)
		}
	}
	checkResolves(t, s2, keep, "after GC and reopen")
	removed, err = s2.GC(roots)
	if err != nil {
		t.Fatal(err)
	}
	if removed != len(listed)-len(live) || len(listSet(t, s2)) != len(live) {
		t.Fatalf("GC after reopen removed %d of %d listed, want %d live left", removed, len(listed), len(live))
	}
	if after := readDir(t, dir); !sameFiles(before, after) {
		t.Fatal("dropping re-indexed dead records rewrote packs")
	}
}

// TestPackGCCopiesNoMoreThanItReclaims pins the cost bound of GC on a store
// whose dead records are spread over many packs, as folded delta chains leave
// them in a long-running paging server. With a few dead chains in most packs,
// GC copies nothing; once most chains die, it compacts the packs that are at
// least half dead and copies fewer bytes than it reclaims.
func TestPackGCCopiesNoMoreThanItReclaims(t *testing.T) {
	dir := t.TempDir()
	s, err := openStore(dir, 0, 2048)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	refs, _ := fillStore(t, s, 640, "spread")
	chainRoots := func(keep func(chain int) bool) []uint64 {
		var roots []uint64
		for c := 0; 4*c+3 < len(refs); c++ {
			if keep(c) {
				roots = append(roots, refs[4*c+3].ID)
			}
		}
		return roots
	}
	gc := func(roots []uint64) (copied, reclaimed int64, live map[uint64]bool) {
		t.Helper()
		live, err := s.Closure(roots)
		if err != nil {
			t.Fatal(err)
		}
		before := readDir(t, dir)
		if _, err := s.GC(roots); err != nil {
			t.Fatal(err)
		}
		after := readDir(t, dir)
		for name, data := range after {
			copied += int64(len(data) - len(before[name]))
		}
		for name, data := range before {
			if _, ok := after[name]; !ok {
				reclaimed += int64(len(data))
			}
		}
		return copied, reclaimed, live
	}

	// One chain in eight dies: dead records in most packs, none half dead.
	roots := chainRoots(func(c int) bool { return c%8 != 5 })
	live, err := s.Closure(roots)
	if err != nil {
		t.Fatal(err)
	}
	packs := packPaths(t, dir)
	var spread int
	var copyAllDirty int64 // what compacting every pack holding a dead record would copy
	for _, p := range packs {
		var liveBytes int64
		dead := false
		for _, r := range readPackRecords(t, p) {
			if live[r.id] {
				liveBytes += r.end - r.off
			} else {
				dead = true
			}
		}
		if dead {
			spread++
			copyAllDirty += liveBytes
		}
	}
	if len(packs) < 16 || 2*spread < len(packs) {
		t.Fatalf("fixture spreads dead records over %d of %d packs; want most of at least 16", spread, len(packs))
	}
	copied, reclaimed, _ := gc(roots)
	t.Logf("sparse deaths: %d packs, %d hold dead records; copied %d bytes, reclaimed %d (compacting every dirty pack would copy %d)",
		len(packs), spread, copied, reclaimed, copyAllDirty)
	if copied != 0 || reclaimed != 0 {
		t.Fatalf("GC with no pack half dead copied %d bytes and reclaimed %d", copied, reclaimed)
	}

	// Seven chains in eight die: most packs cross the threshold.
	roots = chainRoots(func(c int) bool { return c%8 == 0 })
	copied, reclaimed, live = gc(roots)
	t.Logf("mass deaths: copied %d bytes, reclaimed %d", copied, reclaimed)
	if reclaimed == 0 || copied > reclaimed {
		t.Fatalf("GC copied %d bytes to reclaim %d", copied, reclaimed)
	}
	checkPacksMostlyLive(t, dir, live)
}

// checkPacksMostlyLive asserts the GC invariant that every pack on disk holds
// more live bytes than dead ones.
func checkPacksMostlyLive(t *testing.T, dir string, live map[uint64]bool) {
	t.Helper()
	for _, p := range packPaths(t, dir) {
		var size, liveBytes int64
		seen := map[uint64]bool{}
		for _, r := range readPackRecords(t, p) {
			size = r.end
			if live[r.id] && !seen[r.id] {
				liveBytes += r.end - r.off
			}
			seen[r.id] = true
		}
		if 2*liveBytes <= size {
			t.Fatalf("%s is %d bytes with %d live after GC; it must be more than half live", filepath.Base(p), size, liveBytes)
		}
	}
}

func sameFiles(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for name, data := range a {
		if !bytes.Equal(data, b[name]) {
			return false
		}
	}
	return true
}

// TestPackGCCrashStates enumerates the crash states of a GC copy-forward: the
// copied bytes cut at every offset with every compacted pack still present,
// then every prefix of the pack removals. Each state must open, resolve every
// live chunk, and be cleaned to exactly the live set by the next GC.
func TestPackGCCrashStates(t *testing.T) {
	src := t.TempDir()
	s, err := openStore(src, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	refs, want := fillStore(t, s, 24, "gccrash")
	roots := []uint64{refs[2].ID, refs[9].ID, refs[17].ID, refs[22].ID}
	live, err := s.Closure(roots)
	if err != nil {
		t.Fatal(err)
	}
	keep := map[uint64][]byte{}
	for id := range live {
		keep[id] = want[id]
	}
	pre := readDir(t, src)
	if _, err := s.GC(roots); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	post := readDir(t, src)

	// The copy-forward as one ordered byte stream across the packs it wrote.
	type growth struct {
		name  string
		base  []byte
		added []byte
	}
	var grown []growth
	var removedPacks []string
	for _, p := range packPaths(t, src) {
		name := filepath.Base(p)
		base := pre[name]
		if !bytes.HasPrefix(post[name], base) {
			t.Fatalf("GC rewrote %s in place instead of appending", name)
		}
		if len(post[name]) > len(base) {
			grown = append(grown, growth{name, base, post[name][len(base):]})
		}
	}
	for name := range pre {
		if _, ok := post[name]; !ok {
			removedPacks = append(removedPacks, name)
		}
	}
	sort.Strings(removedPacks)
	if len(grown) == 0 || len(removedPacks) == 0 {
		t.Fatalf("fixture GC copied into %d packs and removed %d; it must do both", len(grown), len(removedPacks))
	}
	total := 0
	for _, g := range grown {
		total += len(g.added)
	}

	check := func(dir, state string, collect bool) {
		t.Helper()
		st, err := openStore(dir, 0, 512)
		if err != nil {
			t.Fatalf("%s: Open refused: %v", state, err)
		}
		defer st.Close()
		checkResolves(t, st, keep, state)
		if !collect {
			return
		}
		if _, err := st.GC(roots); err != nil {
			t.Fatalf("%s: GC after recovery: %v", state, err)
		}
		if got := listSet(t, st); len(got) != len(live) {
			t.Fatalf("%s: recovery GC left %d chunks, want %d live", state, len(got), len(live))
		}
		checkResolves(t, st, keep, state+", after the recovery GC")
	}

	// Every cut opens and resolves in one reused directory (Open only ever
	// truncates the last pack, which the next cut rewrites); a sample of cuts
	// also runs the recovery GC in a fresh copy.
	work := t.TempDir()
	writeDir(t, work, pre)
	for k := 0; k <= total; k++ {
		files := map[string][]byte{}
		left := k
		for _, g := range grown {
			n := min(left, len(g.added))
			left -= n
			path := filepath.Join(work, g.name)
			if n == 0 && g.base == nil {
				// This pack was never created.
				if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
					t.Fatal(err)
				}
				continue
			}
			files[g.name] = append(append([]byte(nil), g.base...), g.added[:n]...)
		}
		writeDir(t, work, files)
		state := fmt.Sprintf("copy-forward cut at %d of %d bytes", k, total)
		check(work, state, false)
		if k%61 == 0 || k == total {
			dir := t.TempDir()
			writeDir(t, dir, pre)
			writeDir(t, dir, files)
			check(dir, state, true)
		}
	}
	for j := 0; j <= len(removedPacks); j++ {
		dir := t.TempDir()
		writeDir(t, dir, pre)
		writeDir(t, dir, post)
		for _, name := range removedPacks[:j] {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
		check(dir, fmt.Sprintf("%d of %d pack removals done", j, len(removedPacks)), true)
	}
}

// TestStoreConcurrentUse drives one store from several goroutines, as the
// shards of a service share it: chained puts across pack rotations, with
// pairs of goroutines writing identical chunks so dedupe races a write, and
// resolves and Has checks on every put.
func TestStoreConcurrentUse(t *testing.T) {
	s, err := openStore(t.TempDir(), 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const workers, puts = 4, 60
	refs := make([][]Ref, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			parent := Ref{}
			for i := 0; i < puts; i++ {
				payload := []byte(fmt.Sprintf(`{"tenant":%d,"round":%d,"queued":["a","b"]}`, g%2, i))
				res, err := s.Put(payload, parent)
				if err != nil {
					t.Errorf("worker %d put %d: %v", g, i, err)
					return
				}
				got, _, err := s.Resolve(res.Ref.ID)
				if err != nil || !bytes.Equal(got, payload) || !s.Has(res.Ref.ID) {
					t.Errorf("worker %d put %d: resolve %q, %v", g, i, got, err)
					return
				}
				parent = res.Ref
				refs[g] = append(refs[g], res.Ref)
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Workers g and g+2 wrote the same chunks: the store holds one copy.
	ids := listSet(t, s)
	for g := 0; g < 2; g++ {
		for i, r := range refs[g] {
			if refs[g+2][i] != r || !ids[r.ID] {
				t.Fatalf("worker %d put %d: ref %+v, twin %+v, listed %v", g, i, r, refs[g+2][i], ids[r.ID])
			}
		}
	}
}
