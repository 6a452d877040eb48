package serve

import (
	"bytes"
	"encoding/binary"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rrsched/internal/ckptstore"
)

// readTree snapshots every regular file under root, keyed by relative path.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		out[rel] = data
		return err
	})
	if err != nil {
		t.Fatalf("snapshot %s: %v", root, err)
	}
	return out
}

// writeTree writes files under root, skipping any whose content is already
// in place.
func writeTree(t *testing.T, root string, files map[string][]byte) {
	t.Helper()
	for rel, data := range files {
		path := filepath.Join(root, rel)
		if cur, err := os.ReadFile(path); err == nil && bytes.Equal(cur, data) {
			continue
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPackCrashStatesRestoreOrRefuse enumerates power-cut states of the chunk
// packs at the service level. A cut commits manifests at round 12; the
// service then runs on, and evictions append chunks no manifest names. The
// crash image is that state dir with the last pack cut at every byte offset
// inside its last few records, which covers both post-commit orphans and
// the committed chunks before them. Every state must either boot on the last
// committed manifest set with every decision stream byte-identical to a bare
// scheduler at that round, or refuse boot — and it must refuse exactly when
// the cut removed a committed chunk.
func TestPackCrashStatesRestoreOrRefuse(t *testing.T) {
	const cut, crash = 12, 20
	cfg := Config{Shards: 2, Resources: 8, Delta: 4, Watermark: 1 << 16,
		RecordDecisions: true, StateDir: t.TempDir(), EvictAfter: sparseEvict}
	svc, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := httptest.NewServer(svc.Handler())
	client := NewClient(srv.URL)
	tenants := sparseFixture()
	driveSparseFixture(t, client, tenants, cut, nil)
	if err := svc.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for r := int64(cut); r < crash; r++ {
		driveTailSparse(t, client, tenants, r)
	}
	// The crash image: everything that reached the files, taken while the
	// service is idle between rounds (the decision log's buffered tail is
	// lost, as a crash would lose it).
	image := readTree(t, cfg.StateDir)
	srv.Close()
	svc.Close()

	var packs []string
	for rel := range image {
		if strings.HasPrefix(rel, filepath.Join("chunks", "pack-")) {
			packs = append(packs, rel)
		}
	}
	sort.Strings(packs)
	if len(packs) == 0 {
		t.Fatal("no chunk packs in the crash image")
	}
	lastRel := packs[len(packs)-1]
	full := image[lastRel]
	type record struct {
		id       uint64
		off, end int
	}
	var recs []record
	for off := 0; off < len(full); {
		end := off + 12 + int(binary.BigEndian.Uint32(full[off:]))
		recs = append(recs, record{id: binary.BigEndian.Uint64(full[off+4:]), off: off, end: end})
		off = end
	}

	work := t.TempDir()
	writeTree(t, work, image)
	st, err := ckptstore.Open(filepath.Join(work, "chunks"), 0)
	if err != nil {
		t.Fatalf("open image store: %v", err)
	}
	var roots []uint64
	for i := 0; i < cfg.Shards; i++ {
		r, err := readDiskManifest(t, filepath.Join(work, shardManifestName(i))).Roots()
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, r...)
	}
	committed, err := st.Closure(roots)
	if err != nil {
		t.Fatalf("committed closure: %v", err)
	}
	_ = st.Close()
	// Cut from the last committed record (or the last three records, if they
	// start earlier) to the end.
	start, committedEnd := recs[max(0, len(recs)-3)].off, 0
	for _, r := range recs {
		if committed[r.id] {
			committedEnd = r.end
		}
	}
	orphans := 0
	for _, r := range recs {
		if committed[r.id] && r.end == committedEnd {
			start = min(start, r.off)
		}
		if r.off >= committedEnd {
			orphans++
		}
	}
	if orphans == 0 || committedEnd == 0 {
		t.Fatalf("fixture drifted: the last pack holds %d post-commit records after committed ones ending at %d", orphans, committedEnd)
	}

	ring := newHashRing(cfg.Shards)
	want := map[string][]byte{}
	for _, tn := range tenants {
		b, err := MarshalResponse(&DecisionsResponse{
			Schema: DecisionsSchema, Tenant: tn.name, Shard: ring.ShardOf(tn.name),
			Epoch: tn.epoch, Round: cut, Decisions: sparseReference(t, tn, cut, cfg),
		})
		if err != nil {
			t.Fatal(err)
		}
		want[tn.name] = b
	}

	// Boot rewrites the last pack (torn-tail truncation) and the decision
	// logs (rollback to the cut); every other file is the same in all states.
	rewrite := map[string][]byte{}
	for rel, data := range image {
		if !strings.HasPrefix(rel, "chunks") || rel == lastRel {
			rewrite[rel] = data
		}
	}
	bootCfg := cfg
	bootCfg.StateDir = work
	refused, restored := 0, 0
	for k := start; k <= len(full); k++ {
		rewrite[lastRel] = full[:k]
		writeTree(t, work, rewrite)
		svc2, _, err := New(bootCfg)
		if k < committedEnd {
			if err == nil {
				svc2.Close()
				t.Fatalf("cut at %d of %d: boot accepted a state missing a committed chunk (committed records end at %d)", k, len(full), committedEnd)
			}
			refused++
			continue
		}
		if err != nil {
			t.Fatalf("cut at %d of %d: boot refused with every committed chunk intact: %v", k, len(full), err)
		}
		if got := svc2.Round(); got != cut {
			svc2.Close()
			t.Fatalf("cut at %d: restored at round %d, want the committed %d", k, got, cut)
		}
		h := svc2.Handler()
		for _, tn := range tenants {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/decisions?tenant="+tn.name, nil))
			if got := rec.Body.Bytes(); !bytes.Equal(got, want[tn.name]) {
				svc2.Close()
				t.Fatalf("cut at %d: tenant %s diverges from the bare scheduler at round %d\nservice:   %s\nreference: %s",
					k, tn.name, cut, excerpt(got, want[tn.name]), excerpt(want[tn.name], got))
			}
		}
		svc2.Close()
		restored++
	}
	t.Logf("cuts %d..%d of the last pack: %d refused (committed records end at %d), %d restored", start, len(full), refused, committedEnd, restored)
	if refused == 0 || restored == 0 {
		t.Fatalf("enumeration covered %d refusing and %d restoring states; it must cover both", refused, restored)
	}

	// The restoring extremes — every orphan cut, and nothing cut — also run
	// the rest of the fixture to the end with identical decisions.
	for _, k := range []int{committedEnd, len(full)} {
		rewrite[lastRel] = full[:k]
		writeTree(t, work, rewrite)
		svc2, _, err := New(bootCfg)
		if err != nil {
			t.Fatalf("cut at %d: %v", k, err)
		}
		srv2 := httptest.NewServer(svc2.Handler())
		client2 := NewClient(srv2.URL)
		for r := int64(cut); r < sparseTotal; r++ {
			driveTailSparse(t, client2, tenants, r)
		}
		checkSparseDecisions(t, client2, tenants, sparseTotal, cfg, cfg.Shards, 0)
		srv2.Close()
		svc2.Close()
	}
}
