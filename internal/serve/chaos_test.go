package serve

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"rrsched/internal/chaos"
	"rrsched/internal/obs"
)

// TestCheckpointRestoreDecisionIdentical is the durability half of the
// determinism contract: run the fixture uninterrupted, then run it again with
// a drain + checkpoint + restore in the middle, and demand that (a) the
// concatenated per-tenant decision streams match the uninterrupted run
// decision for decision, and (b) the merged metric snapshots of the two
// incarnations sum to the uninterrupted run's snapshot (zero extra drops or
// reconfigs), via the chaos package's snapshot comparison.
func TestCheckpointRestoreDecisionIdentical(t *testing.T) {
	cfg := Config{Shards: 4, Resources: 8, Delta: 4, Watermark: 1 << 16, RecordDecisions: true}
	const cutRound, totalRounds = 17, 45

	// Uninterrupted baseline.
	baseSvc, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer baseSvc.Close()
	baseSrv := httptest.NewServer(baseSvc.Handler())
	defer baseSrv.Close()
	baseClient := NewClient(baseSrv.URL)
	driveService(t, baseClient, detFixture(t, 42), totalRounds)
	baseline := map[string]*DecisionsResponse{}
	for _, tn := range detFixture(t, 42) {
		dr, err := baseClient.Decisions(tn.name)
		if err != nil {
			t.Fatalf("baseline Decisions(%s): %v", tn.name, err)
		}
		baseline[tn.name] = dr
	}
	baseSnap, err := baseSvc.MergedMetrics()
	if err != nil {
		t.Fatalf("baseline metrics: %v", err)
	}

	// Interrupted run, first incarnation: rounds [0, cutRound), then the
	// drain protocol — BeginDrain, checkpoint, close — exactly as rrserve
	// does on SIGTERM.
	stateDir := t.TempDir()
	icfg := cfg
	icfg.StateDir = stateDir
	svc1, restored, err := New(icfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if restored != 0 {
		t.Fatalf("fresh state dir restored %d tenants", restored)
	}
	srv1 := httptest.NewServer(svc1.Handler())
	client1 := NewClient(srv1.URL)
	driveService(t, client1, detFixture(t, 42), cutRound)
	// Capture the pre-crash decision prefix and metrics before the shards
	// stop (decision recordings are in-memory only; checkpoints carry state,
	// not history).
	prefix := map[string]*DecisionsResponse{}
	for _, tn := range detFixture(t, 42) {
		dr, err := client1.Decisions(tn.name)
		if err != nil {
			t.Fatalf("prefix Decisions(%s): %v", tn.name, err)
		}
		prefix[tn.name] = dr
	}
	svc1.BeginDrain()
	srv1.Close()
	if err := svc1.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	snap1, err := svc1.MergedMetrics()
	if err != nil {
		t.Fatalf("incarnation-1 metrics: %v", err)
	}
	svc1.Close()
	for i := 0; i < cfg.Shards; i++ {
		if _, err := os.Stat(filepath.Join(stateDir, fmt.Sprintf("manifest-%04d.json", i))); err != nil {
			t.Fatalf("missing shard %d manifest: %v", i, err)
		}
	}

	// Second incarnation: restore and finish the run.
	svc2, restored, err := New(icfg)
	if err != nil {
		t.Fatalf("restore New: %v", err)
	}
	defer svc2.Close()
	if want := len(detFixture(t, 42)); restored != want {
		t.Fatalf("restored %d tenants, want %d", restored, want)
	}
	if svc2.Round() != cutRound {
		t.Fatalf("restored round %d, want %d", svc2.Round(), cutRound)
	}
	srv2 := httptest.NewServer(svc2.Handler())
	defer srv2.Close()
	client2 := NewClient(srv2.URL)
	tenants := detFixture(t, 42)
	driveTail(t, client2, tenants, cutRound, totalRounds)

	// (a) Decision identity. The streaming decision log survives the restart,
	// so the restored incarnation serves each tenant's FULL history — which
	// must match the uninterrupted run byte for byte (a stronger contract
	// than the old in-memory recording, where only the post-restore suffix
	// survived). The pre-crash prefix must also be a literal prefix of it.
	for _, tn := range tenants {
		full, err := client2.Decisions(tn.name)
		if err != nil {
			t.Fatalf("restored Decisions(%s): %v", tn.name, err)
		}
		if full.Epoch != prefix[tn.name].Epoch || full.Shard != prefix[tn.name].Shard {
			t.Fatalf("tenant %s: restore moved epoch/shard: %+v vs %+v", tn.name, full, prefix[tn.name])
		}
		a, err := MarshalResponse(full.Decisions)
		if err != nil {
			t.Fatalf("encode restored stream: %v", err)
		}
		b, err := MarshalResponse(baseline[tn.name].Decisions)
		if err != nil {
			t.Fatalf("encode baseline: %v", err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("tenant %s: interrupted run diverges from baseline\ngot:  %s\nwant: %s",
				tn.name, excerpt(a, b), excerpt(b, a))
		}
		pre := prefix[tn.name].Decisions
		if len(pre) > len(full.Decisions) {
			t.Fatalf("tenant %s: pre-crash stream longer than restored stream", tn.name)
		}
		p, err := MarshalResponse(pre)
		if err != nil {
			t.Fatalf("encode prefix: %v", err)
		}
		q, err := MarshalResponse(full.Decisions[:len(pre)])
		if err != nil {
			t.Fatalf("encode restored prefix: %v", err)
		}
		if !bytes.Equal(p, q) {
			t.Fatalf("tenant %s: restored stream rewrites the pre-crash prefix", tn.name)
		}
	}

	// (b) Metric identity: the two incarnations' counters sum to the
	// uninterrupted run's. chaos.CompareSnapshots also pins that the merged
	// run covers the same number of rounds.
	snap2, err := svc2.MergedMetrics()
	if err != nil {
		t.Fatalf("incarnation-2 metrics: %v", err)
	}
	merged, err := obs.MergeSnapshots(snap1, snap2)
	if err != nil {
		t.Fatalf("MergeSnapshots: %v", err)
	}
	rep, err := chaos.CompareSnapshots(baseSnap, merged)
	if err != nil {
		t.Fatalf("CompareSnapshots: %v", err)
	}
	if rep.ExtraDrops != 0 || rep.ExtraReconfigs != 0 {
		t.Fatalf("restart cost: %+v (want zero extra drops and reconfigs)", rep)
	}
}

// driveTail is driveService restricted to global rounds [from, to): it
// submits the arrivals due in that window and ticks once per round.
func driveTail(t *testing.T, client *Client, tenants []detTenant, from, to int64) {
	driveTailTicking(t, client, tenants, from, to, func(int64) error {
		_, err := client.Tick(1)
		return err
	})
}

// driveTailTicking is driveTail with the caller's tick, which must bring the
// service to round next.
func driveTailTicking(t *testing.T, client *Client, tenants []detTenant, from, to int64, tick func(next int64) error) {
	t.Helper()
	for r := from; r < to; r++ {
		for i := range tenants {
			tn := &tenants[i]
			local := r - tn.startRound
			if local < 0 {
				continue
			}
			jobs := tn.seq.Request(local)
			if len(jobs) == 0 {
				continue
			}
			wire := make([]SubmitJob, len(jobs))
			for k, j := range jobs {
				wire[k] = SubmitJob{ID: j.ID, Color: int32(j.Color), Delay: j.Delay}
			}
			out, err := client.Submit(&SubmitRequest{Schema: WireSchema, Tenant: tn.name, Jobs: wire})
			if err != nil || !out.Accepted {
				t.Fatalf("tail submit %s at round %d: out=%+v err=%v", tn.name, r, out, err)
			}
		}
		if err := tick(r + 1); err != nil {
			t.Fatalf("tail tick at round %d: %v", r, err)
		}
	}
}

// TestRestoreRejectsCorruptState pins the refusal paths of restore: partial
// state dirs, shard-count changes, and mangled files must fail loudly rather
// than boot a service with silently missing tenants.
func TestRestoreRejectsCorruptState(t *testing.T) {
	cfg := Config{Shards: 2, Resources: 8, Delta: 4, Watermark: 64}
	stateDir := t.TempDir()
	cfg.StateDir = stateDir
	svc, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := httptest.NewServer(svc.Handler())
	client := NewClient(srv.URL)
	submitJobs(t, client, "alpha", SubmitJob{ID: 0, Color: 0, Delay: 4})
	if _, err := client.Tick(3); err != nil {
		t.Fatalf("Tick: %v", err)
	}
	svc.BeginDrain()
	srv.Close()
	if err := svc.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	svc.Close()

	// A shard-count change is accepted: boot restore re-routes the tenants
	// through the larger ring and bumps the placement epoch past the
	// checkpoint's (satellite of the reshard work; the deep coverage lives in
	// reshard_test.go).
	grownCfg := cfg
	grownCfg.Shards = 4
	grown, _, err := New(grownCfg)
	if err != nil {
		t.Fatalf("restore into 4 shards: %v", err)
	}
	if st := grown.Stats(); st.Totals.Tenants != 1 || st.Epoch != 1 {
		t.Fatalf("resharded restore: tenants=%d epoch=%d, want 1 tenant at epoch 1", st.Totals.Tenants, st.Epoch)
	}
	grown.Close()

	// Partial dir (one manifest missing) must be refused.
	if err := os.Remove(filepath.Join(stateDir, "manifest-0001.json")); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, _, err := New(cfg); err == nil {
		t.Fatal("restore accepted a partial state dir")
	}

	// Corrupt JSON must be refused.
	if err := os.WriteFile(filepath.Join(stateDir, "manifest-0001.json"), []byte("{broken"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, _, err := New(cfg); err == nil {
		t.Fatal("restore accepted a corrupt manifest")
	}
}
