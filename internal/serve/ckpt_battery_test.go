package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"rrsched/internal/ckptstore"
	"rrsched/internal/model"
	"rrsched/internal/stream"
)

// sparseTenant is one tenant of the paging fixture: two short bursts
// separated by an idle gap long enough for the tenant to quiesce and page out
// under the battery's EvictAfter, so the second burst exercises fault-in.
type sparseTenant struct {
	name  string
	epoch int64 // global round of the first burst (= the tenant's epoch)
}

const (
	sparseGap   = 16 // idle rounds between a tenant's two bursts
	sparseDelay = 4  // delay bound of every job in the fixture
	sparseTotal = 44 // driven rounds: past the last burst plus its drop tail
	sparseEvict = 4  // EvictAfter used by the battery
)

func sparseFixture() []sparseTenant {
	return []sparseTenant{
		{name: "pg-a", epoch: 0},
		{name: "pg-b", epoch: 1},
		{name: "pg-c", epoch: 2},
		{name: "pg-d", epoch: 3},
		{name: "pg-e", epoch: 5},
		{name: "pg-f", epoch: 9},
	}
}

// sparseArrivals returns the jobs the tenant submits at global round r: three
// jobs per burst round, two rounds per burst, IDs strictly increasing across
// the tenant's life as the wire contract demands.
func sparseArrivals(tn sparseTenant, r int64) []SubmitJob {
	var wave int64
	switch {
	case r == tn.epoch || r == tn.epoch+1:
		wave = r - tn.epoch
	case r == tn.epoch+sparseGap || r == tn.epoch+sparseGap+1:
		wave = 2 + (r - tn.epoch - sparseGap)
	default:
		return nil
	}
	jobs := make([]SubmitJob, 3)
	for k := range jobs {
		jobs[k] = SubmitJob{ID: wave*3 + int64(k), Color: int32(k), Delay: sparseDelay}
	}
	return jobs
}

// sparseReference replays one tenant's arrivals through a bare
// stream.Scheduler at tenant-local rounds — the same contract
// referenceDecisions pins for the generated fixture.
func sparseReference(t *testing.T, tn sparseTenant, totalRounds int64, cfg Config) []stream.Decision {
	t.Helper()
	sched, err := stream.New(stream.Config{Delta: cfg.Delta, Resources: cfg.Resources})
	if err != nil {
		t.Fatalf("stream.New: %v", err)
	}
	var out []stream.Decision
	for local := int64(0); local < totalRounds-tn.epoch; local++ {
		wire := sparseArrivals(tn, tn.epoch+local)
		jobs := make([]model.Job, len(wire))
		for i, w := range wire {
			jobs[i] = model.Job{ID: w.ID, Color: model.Color(w.Color), Arrival: local, Delay: w.Delay}
		}
		sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
		dec, err := sched.Push(local, jobs)
		if err != nil {
			t.Fatalf("reference push for %s at local %d: %v", tn.name, local, err)
		}
		out = append(out, dec)
	}
	return out
}

// driveSparseFixture submits each round's due bursts and ticks once, calling
// hook (when set) before the round's submissions.
func driveSparseFixture(t *testing.T, client *Client, tenants []sparseTenant, totalRounds int64, hook func(r int64)) {
	t.Helper()
	for r := int64(0); r < totalRounds; r++ {
		if hook != nil {
			hook(r)
		}
		for _, tn := range tenants {
			jobs := sparseArrivals(tn, r)
			if len(jobs) == 0 {
				continue
			}
			out, err := client.Submit(&SubmitRequest{Schema: WireSchema, Tenant: tn.name, Jobs: jobs})
			if err != nil || !out.Accepted {
				t.Fatalf("submit %s at round %d: out=%+v err=%v", tn.name, r, out, err)
			}
		}
		if _, err := client.Tick(1); err != nil {
			t.Fatalf("tick at round %d: %v", r, err)
		}
	}
}

// checkSparseDecisions byte-compares every fixture tenant's /v1/decisions
// against the bare-scheduler reference.
func checkSparseDecisions(t *testing.T, client *Client, tenants []sparseTenant, totalRounds int64, cfg Config, finalShards int, finalEpoch int64) {
	t.Helper()
	ring := newHashRing(finalShards)
	for _, tn := range tenants {
		got, err := client.DecisionsRaw(tn.name)
		if err != nil {
			t.Fatalf("DecisionsRaw(%s): %v", tn.name, err)
		}
		want, err := MarshalResponse(&DecisionsResponse{
			Schema:         DecisionsSchema,
			Tenant:         tn.name,
			Shard:          ring.ShardOf(tn.name),
			Epoch:          tn.epoch,
			Round:          totalRounds,
			PlacementEpoch: finalEpoch,
			Decisions:      sparseReference(t, tn, totalRounds, cfg),
		})
		if err != nil {
			t.Fatalf("MarshalResponse: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("tenant %s: decisions diverge from bare scheduler across evict/fault-in\nservice:   %s\nreference: %s",
				tn.name, excerpt(got, want), excerpt(want, got))
		}
	}
}

// TestEvictFaultInDecisionsMatchBareScheduler is the paging half of the
// determinism contract: with aggressive cold-tenant eviction on, every
// fixture tenant quiesces, pages out to the chunk store mid-run, and is
// faulted back in by its second burst — and its decision stream must still be
// byte-identical to a bare scheduler that never saw any of it.
func TestEvictFaultInDecisionsMatchBareScheduler(t *testing.T) {
	cfg := Config{Shards: 2, Resources: 8, Delta: 4, Watermark: 1 << 16,
		RecordDecisions: true, StateDir: t.TempDir(), EvictAfter: sparseEvict}
	svc, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	tenants := sparseFixture()
	sawEvicted := false
	driveSparseFixture(t, client, tenants, sparseTotal, func(r int64) {
		// Every first burst has resolved and aged out by round 14; the paging
		// machinery must actually have engaged, or the battery proves nothing.
		if r == 14 {
			if ev := svc.Stats().Totals.Evicted; ev == 0 {
				t.Fatalf("no tenant evicted by round %d; paging never engaged", r)
			}
			sawEvicted = true
		}
	})
	if !sawEvicted {
		t.Fatal("eviction checkpoint round never ran")
	}
	checkSparseDecisions(t, client, tenants, sparseTotal, cfg, cfg.Shards, 0)

	// The drop tail has passed and every tenant has aged out again: the whole
	// universe must be paged out, with zero residents.
	if st := svc.Stats(); st.Totals.Evicted != len(tenants) || st.Totals.Tenants != 0 {
		t.Fatalf("end state: resident=%d evicted=%d, want 0/%d", st.Totals.Tenants, st.Totals.Evicted, len(tenants))
	}
}

// TestReshardRidesDeltaMigration pins the reshard path over the chunk store:
// a mid-run 2→4 split lands while the fixture holds all three tenant shapes —
// evicted stubs, clean chunk-backed residents (from a checkpoint cut two
// rounds earlier), and dirty residents — so stubs and clean tenants migrate
// as chunk references while only dirty state moves as full frames. Decision
// streams must not see any of it, including the post-split fault-ins.
func TestReshardRidesDeltaMigration(t *testing.T) {
	cfg := Config{Shards: 2, Resources: 8, Delta: 4, Watermark: 1 << 16,
		RecordDecisions: true, StateDir: t.TempDir(), EvictAfter: sparseEvict}
	svc, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	tenants := sparseFixture()
	driveSparseFixture(t, client, tenants, sparseTotal, func(r int64) {
		switch r {
		case 12:
			// A live cut: residents become clean and chunk-backed, so the
			// split below has references to ride.
			if err := svc.Checkpoint(); err != nil {
				t.Fatalf("mid-run Checkpoint: %v", err)
			}
		case 14:
			if ev := svc.Stats().Totals.Evicted; ev == 0 {
				t.Fatalf("no tenant evicted before the split; fixture drifted")
			}
			rr, err := client.Reshard(4)
			if err != nil {
				t.Fatalf("Reshard(4): %v", err)
			}
			if rr.From != 2 || rr.Shards != 4 || rr.Epoch != 1 {
				t.Fatalf("unexpected reshard response %+v", rr)
			}
		}
	})
	checkSparseDecisions(t, client, tenants, sparseTotal, cfg, 4, 1)

	// The migrated universe must still cut and page: a final checkpoint on
	// the new ring succeeds and covers every tenant.
	if err := svc.Checkpoint(); err != nil {
		t.Fatalf("post-split Checkpoint: %v", err)
	}
	for i := 0; i < 4; i++ {
		if _, err := os.Stat(filepath.Join(cfg.StateDir, shardManifestName(i))); err != nil {
			t.Fatalf("post-split manifest %d: %v", i, err)
		}
	}
}

// shardManifestName mirrors Service.shardManifestPath for tests that assert
// on the state-dir layout.
func shardManifestName(i int) string {
	return fmt.Sprintf("manifest-%04d.json", i)
}

// TestLegacyFullStateFallback pins the upgrade path: a state dir holding only
// the old per-shard full-state files (shard-*.json, as previous releases and
// the hosted tier write them) must restore byte-for-byte — same round, same
// tenants, same decision history — and the next checkpoint must replace the
// legacy files with manifests.
func TestLegacyFullStateFallback(t *testing.T) {
	const cutRound, totalRounds = 17, 45
	tenants := detFixture(t, 42)

	// Uninterrupted baseline for the final stream comparison.
	baseCfg := Config{Shards: 2, Resources: 8, Delta: 4, Watermark: 1 << 16, RecordDecisions: true}
	baseSvc, _, err := New(baseCfg)
	if err != nil {
		t.Fatalf("baseline New: %v", err)
	}
	defer baseSvc.Close()
	baseSrv := httptest.NewServer(baseSvc.Handler())
	defer baseSrv.Close()
	baseClient := NewClient(baseSrv.URL)
	driveService(t, baseClient, tenants, totalRounds)

	// Incarnation 1 is hosted with embedded decision history — its CloseShard
	// bytes ARE the legacy full-state format, so the fixture set is produced
	// by the real writer, not handcrafted JSON.
	hostedCfg := baseCfg
	hostedCfg.Hosted = true
	hostedCfg.CheckpointDecisions = true
	svc1, _, err := New(hostedCfg)
	if err != nil {
		t.Fatalf("hosted New: %v", err)
	}
	for i := 0; i < hostedCfg.Shards; i++ {
		if _, err := svc1.OpenShard(i, nil); err != nil {
			t.Fatalf("OpenShard(%d): %v", i, err)
		}
	}
	srv1 := httptest.NewServer(svc1.Handler())
	client1 := NewClient(srv1.URL)
	driveService(t, client1, tenants, cutRound)
	stateDir := t.TempDir()
	for i := 0; i < hostedCfg.Shards; i++ {
		data, err := svc1.CloseShard(i)
		if err != nil {
			t.Fatalf("CloseShard(%d): %v", i, err)
		}
		if err := os.WriteFile(filepath.Join(stateDir, shardStateName(i)), data, 0o644); err != nil {
			t.Fatalf("write legacy file: %v", err)
		}
	}
	srv1.Close()
	svc1.Close()

	// Incarnation 2: a classic durable service restores through the legacy
	// path and finishes the run.
	cfg2 := baseCfg
	cfg2.StateDir = stateDir
	svc2, restored, err := New(cfg2)
	if err != nil {
		t.Fatalf("legacy restore New: %v", err)
	}
	defer svc2.Close()
	if restored != len(tenants) {
		t.Fatalf("restored %d tenants from legacy set, want %d", restored, len(tenants))
	}
	if svc2.Round() != cutRound {
		t.Fatalf("legacy restore at round %d, want %d", svc2.Round(), cutRound)
	}
	srv2 := httptest.NewServer(svc2.Handler())
	defer srv2.Close()
	client2 := NewClient(srv2.URL)
	driveTail(t, client2, tenants, cutRound, totalRounds)

	// Full history: the embedded legacy decisions seeded the decision log, so
	// every stream matches the uninterrupted baseline byte for byte.
	for _, tn := range tenants {
		got, err := client2.Decisions(tn.name)
		if err != nil {
			t.Fatalf("restored Decisions(%s): %v", tn.name, err)
		}
		want, err := baseClient.Decisions(tn.name)
		if err != nil {
			t.Fatalf("baseline Decisions(%s): %v", tn.name, err)
		}
		a, err := MarshalResponse(got.Decisions)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		b, err := MarshalResponse(want.Decisions)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("tenant %s: legacy restore diverges from baseline\ngot:  %s\nwant: %s",
				tn.name, excerpt(a, b), excerpt(b, a))
		}
	}

	// The next cut upgrades the layout: manifests in, legacy files out.
	if err := svc2.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after legacy restore: %v", err)
	}
	if m, _ := filepath.Glob(filepath.Join(stateDir, "shard-*.json")); len(m) != 0 {
		t.Fatalf("legacy files survived the first incremental cut: %v", m)
	}
	for i := 0; i < cfg2.Shards; i++ {
		if _, err := os.Stat(filepath.Join(stateDir, shardManifestName(i))); err != nil {
			t.Fatalf("missing manifest %d after upgrade cut: %v", i, err)
		}
	}
}

// TestOrphanChunksIgnoredAndCollected simulates the two torn-cut crash
// windows — between a chunk write and the manifest rename, and mid-compaction
// after a folded chunk lands but before the manifest commits. Both leave pack
// records no manifest references, and a crash mid-append leaves a torn record
// after them. Restore must come up from the last committed manifests without
// ever reading the orphans (each one's body is corrupt, so a read of either
// would fail loudly), and the next cut's GC must drop them from the store's
// committed set and keep every committed chunk.
func TestOrphanChunksIgnoredAndCollected(t *testing.T) {
	cfg := Config{Shards: 2, Resources: 8, Delta: 4, Watermark: 1 << 16,
		RecordDecisions: true, StateDir: t.TempDir()}
	svc, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := httptest.NewServer(svc.Handler())
	client := NewClient(srv.URL)
	tenants := sparseFixture()
	// Two cuts with dirtying activity between them, so surviving tenants hold
	// delta chains — the state a mid-compaction crash would be folding.
	driveSparseFixture(t, client, tenants, 12, nil)
	if err := svc.Checkpoint(); err != nil {
		t.Fatalf("first Checkpoint: %v", err)
	}
	for r := int64(12); r < 24; r++ {
		driveTailSparse(t, client, tenants, r)
	}
	svc.BeginDrain()
	srv.Close()
	if err := svc.Checkpoint(); err != nil {
		t.Fatalf("second Checkpoint: %v", err)
	}
	svc.Close()

	chunkDir := filepath.Join(cfg.StateDir, "chunks")
	committed := chunkSet(t, chunkDir)
	if len(committed) == 0 {
		t.Fatal("no chunks written by two cuts")
	}
	// Valid orphan records appended through the store itself, their bodies
	// then corrupted in place, and a torn record after them.
	st, err := ckptstore.Open(chunkDir, 0)
	if err != nil {
		t.Fatalf("open chunk store: %v", err)
	}
	var orphans []uint64
	for _, payload := range []string{"stranded by a crash before the manifest rename", "a folded chunk whose cut never committed"} {
		res, err := st.PutFull([]byte(payload))
		if err != nil {
			t.Fatalf("inject orphan: %v", err)
		}
		orphans = append(orphans, res.Ref.ID)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close chunk store: %v", err)
	}
	packs, err := filepath.Glob(filepath.Join(chunkDir, "pack-*.pack"))
	if err != nil || len(packs) == 0 {
		t.Fatalf("pack glob: %v (%d files)", err, len(packs))
	}
	sort.Strings(packs)
	tail := packs[len(packs)-1]
	data, err := os.ReadFile(tail)
	if err != nil {
		t.Fatalf("read tail pack: %v", err)
	}
	// A pack record is a 4-byte length, the 8-byte chunk ID, then the body.
	corrupted := 0
	for off := 0; off+12 <= len(data); {
		end := off + 12 + int(binary.BigEndian.Uint32(data[off:]))
		if id := binary.BigEndian.Uint64(data[off+4:]); id == orphans[0] || id == orphans[1] {
			data[end-1] ^= 0xff // the orphan's last body byte
			corrupted++
		}
		off = end
	}
	if corrupted != len(orphans) {
		t.Fatalf("found %d of %d orphan records in the tail pack", corrupted, len(orphans))
	}
	data = append(data, 0x00, 0x00, 0x01) // a record torn inside its length
	if err := os.WriteFile(tail, data, 0o644); err != nil {
		t.Fatalf("tear tail pack: %v", err)
	}

	// Restore ignores the orphans entirely; the tenants come back.
	svc2, restored, err := New(cfg)
	if err != nil {
		t.Fatalf("restore with orphans present: %v", err)
	}
	defer svc2.Close()
	if restored != len(tenants) {
		t.Fatalf("restored %d tenants, want %d", restored, len(tenants))
	}

	// The next cut collects them and keeps every referenced chunk. GC drops
	// dead chunks from the live store's index at once; their bytes stay in
	// the pack until it is half dead, so the store itself is what to ask.
	if err := svc2.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after restore: %v", err)
	}
	ids, err := svc2.store.List()
	if err != nil {
		t.Fatalf("list chunks: %v", err)
	}
	after := map[uint64]bool{}
	for _, id := range ids {
		after[id] = true
	}
	for _, id := range orphans {
		if after[id] {
			t.Fatalf("orphan %016x survived GC", id)
		}
	}
	for id := range committed {
		if !after[id] {
			t.Fatalf("GC deleted referenced chunk %016x", id)
		}
	}
}

// driveTailSparse submits one round of the sparse fixture and ticks once.
func driveTailSparse(t *testing.T, client *Client, tenants []sparseTenant, r int64) {
	t.Helper()
	for _, tn := range tenants {
		jobs := sparseArrivals(tn, r)
		if len(jobs) == 0 {
			continue
		}
		out, err := client.Submit(&SubmitRequest{Schema: WireSchema, Tenant: tn.name, Jobs: jobs})
		if err != nil || !out.Accepted {
			t.Fatalf("submit %s at round %d: out=%+v err=%v", tn.name, r, out, err)
		}
	}
	if _, err := client.Tick(1); err != nil {
		t.Fatalf("tick at round %d: %v", r, err)
	}
}

// chunkSet lists the chunk IDs committed in a chunk store directory, as a
// fresh Open of the store sees them.
func chunkSet(t *testing.T, dir string) map[uint64]bool {
	t.Helper()
	st, err := ckptstore.Open(dir, 0)
	if err != nil {
		t.Fatalf("open chunk store: %v", err)
	}
	defer st.Close()
	ids, err := st.List()
	if err != nil {
		t.Fatalf("list chunks: %v", err)
	}
	out := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		out[id] = true
	}
	return out
}

// TestCutScalesWithDirtyNotResident is the drain-time bound behind the
// SIGTERM guarantee: once a universe is chunk-backed, a cut's write work is
// proportional to the dirty set, not the resident count. The proxy measured
// is new chunk IDs in the store — wall-clock would be flaky in CI, chunk
// counts are exact — at two universe sizes with the same absolute dirty set.
func TestCutScalesWithDirtyNotResident(t *testing.T) {
	const dirty = 8
	written := map[int]int{}
	for _, n := range []int{200, 800} {
		cfg := Config{Shards: 2, Resources: 8, Delta: 4, Watermark: 1 << 20, StateDir: t.TempDir()}
		svc, _, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		srv := httptest.NewServer(svc.Handler())
		client := NewClient(srv.URL)
		for i := 0; i < n; i++ {
			submitJobs(t, client, tenantName(i), SubmitJob{ID: 0, Color: 0, Delay: 4})
		}
		// Let every job resolve before the first cut, so nothing re-dirties
		// the universe afterwards.
		if _, err := client.Tick(8); err != nil {
			t.Fatalf("Tick: %v", err)
		}
		if err := svc.Checkpoint(); err != nil {
			t.Fatalf("full cut: %v", err)
		}
		before := chunkSet(t, filepath.Join(cfg.StateDir, "chunks"))
		if len(before) < n {
			t.Fatalf("full cut wrote %d chunks for %d tenants", len(before), n)
		}
		for i := 0; i < dirty; i++ {
			submitJobs(t, client, tenantName(i), SubmitJob{ID: 1, Color: 0, Delay: 4})
		}
		if _, err := client.Tick(8); err != nil {
			t.Fatalf("Tick: %v", err)
		}
		svc.BeginDrain()
		srv.Close()
		if err := svc.Checkpoint(); err != nil {
			t.Fatalf("delta cut: %v", err)
		}
		svc.Close()
		after := chunkSet(t, filepath.Join(cfg.StateDir, "chunks"))
		added := 0
		for id := range after {
			if !before[id] {
				added++
			}
		}
		written[n] = added
		// Each dirty tenant contributes at most a short delta chain; a cut
		// that re-serialized residents would add hundreds here.
		if added > 3*dirty {
			t.Fatalf("delta cut over %d tenants wrote %d new chunks for %d dirty", n, added, dirty)
		}
	}
	// The write work must not grow with the resident count.
	if written[800] > written[200]+dirty {
		t.Fatalf("cut work grew with universe size: %d new chunks at n=200, %d at n=800", written[200], written[800])
	}
}

func tenantName(i int) string {
	return "bulk-" + string(rune('a'+i/676%26)) + string(rune('a'+i/26%26)) + string(rune('a'+i%26))
}

// shardStateName is a legacy full-state checkpoint's file name.
func shardStateName(i int) string {
	return fmt.Sprintf("shard-%04d.json", i)
}
