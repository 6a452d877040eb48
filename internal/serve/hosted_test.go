package serve

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func hostedConfig() Config {
	return Config{Shards: 2, Resources: 8, Delta: 4, Watermark: 1 << 10,
		RecordDecisions: true, CheckpointDecisions: true, Hosted: true}
}

// TestHostedLifecycle pins the open/close state machine: a closed shard
// misdirects submissions and skips ticks, an open shard serves, and closing
// returns a checkpoint that reopens elsewhere with identical state.
func TestHostedLifecycle(t *testing.T) {
	svc, _, err := New(hostedConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClientPolicy(srv.URL, SingleShot())

	// Both shards closed: submissions misdirect, whichever shard the tenant
	// hashes to.
	out, err := client.Submit(&SubmitRequest{Schema: WireSchema, Tenant: "alpha",
		Jobs: []SubmitJob{{ID: 0, Color: 0, Delay: 4}}})
	if err != nil || !out.Misdirected {
		t.Fatalf("submit to closed shard: out=%+v err=%v", out, err)
	}
	if got := svc.OpenShards(); len(got) != 0 {
		t.Fatalf("OpenShards on a fresh hosted service = %v", got)
	}

	// Open both shards fresh; the submission now lands.
	for i := 0; i < 2; i++ {
		round, err := svc.OpenShard(i, nil)
		if err != nil || round != 0 {
			t.Fatalf("OpenShard(%d): round=%d err=%v", i, round, err)
		}
	}
	if _, err := svc.OpenShard(0, nil); err == nil {
		t.Fatal("double open accepted")
	}
	out, err = client.Submit(&SubmitRequest{Schema: WireSchema, Tenant: "alpha",
		Jobs: []SubmitJob{{ID: 0, Color: 0, Delay: 4}}})
	if err != nil || !out.Accepted {
		t.Fatalf("submit to open shard: out=%+v err=%v", out, err)
	}
	for i := 0; i < 2; i++ {
		if r, err := client.TickShardTo(i, 2, 3); err != nil || r != 3 {
			t.Fatalf("TickShardTo(%d, 3): r=%d err=%v", i, r, err)
		}
	}

	// Close the tenant's shard: the next submission misdirects again, a
	// per-shard tick reports ErrMisdirected, and the checkpoint carries the
	// tenant.
	shard := svc.ShardFor("alpha")
	data, closedAt, err := svc.CloseShard(shard)
	if err != nil || closedAt != 3 {
		t.Fatalf("CloseShard: round=%d err=%v", closedAt, err)
	}
	if !strings.Contains(string(data), "alpha") {
		t.Fatalf("checkpoint does not mention the tenant: %.200s", data)
	}
	if out, err := client.Submit(&SubmitRequest{Schema: WireSchema, Tenant: "alpha",
		Jobs: []SubmitJob{{ID: 1, Color: 0, Delay: 4}}}); err != nil || !out.Misdirected {
		t.Fatalf("submit after close: out=%+v err=%v", out, err)
	}
	if _, err := client.TickShardTo(shard, 2, 4); !errors.Is(err, ErrMisdirected) {
		t.Fatalf("TickShardTo on closed shard: err=%v", err)
	}
	if _, _, err := svc.CloseShard(shard); err == nil {
		t.Fatal("double close accepted")
	}

	// Reopen from the checkpoint: the shard resumes at its round with the
	// tenant installed and the recorded decisions intact.
	round, err := svc.OpenShard(shard, data)
	if err != nil || round != 3 {
		t.Fatalf("reopen: round=%d err=%v", round, err)
	}
	dr, err := client.Decisions("alpha")
	if err != nil {
		t.Fatalf("Decisions after reopen: %v", err)
	}
	if len(dr.Decisions) != 3 {
		t.Fatalf("restored %d recorded decisions, want 3", len(dr.Decisions))
	}
}

// TestHostedShardsTickIndependently pins the failover-critical property:
// shards on one host may sit at different rounds, and per-shard target ticks
// realign them without touching the others.
func TestHostedShardsTickIndependently(t *testing.T) {
	svc, _, err := New(hostedConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	if _, err := svc.OpenShard(0, nil); err != nil {
		t.Fatalf("open 0: %v", err)
	}
	if r, err := svc.TickShardTo(0, 5); err != nil || r != 5 {
		t.Fatalf("TickShardTo(0,5): r=%d err=%v", r, err)
	}
	// Shard 1 opens later (as a migrated shard would) at round 0.
	if _, err := svc.OpenShard(1, nil); err != nil {
		t.Fatalf("open 1: %v", err)
	}
	st := svc.Stats()
	if st.PerShard[0].Round != 5 || st.PerShard[1].Round != 0 {
		t.Fatalf("rounds = %d/%d, want 5/0", st.PerShard[0].Round, st.PerShard[1].Round)
	}
	// Each shard advances from its own counter.
	if r, err := svc.TickShardTo(0, 7); err != nil || r != 7 {
		t.Fatalf("TickShardTo(0,7): r=%d err=%v", r, err)
	}
	if r, err := svc.TickShardTo(1, 2); err != nil || r != 2 {
		t.Fatalf("TickShardTo(1,2): r=%d err=%v", r, err)
	}
	st = svc.Stats()
	if st.PerShard[0].Round != 7 || st.PerShard[1].Round != 2 {
		t.Fatalf("rounds after ticks = %d/%d, want 7/2", st.PerShard[0].Round, st.PerShard[1].Round)
	}
	// Realign shard 1.
	if r, err := svc.TickShardTo(1, 7); err != nil || r != 7 {
		t.Fatalf("TickShardTo(1,7): r=%d err=%v", r, err)
	}
	if st = svc.Stats(); st.PerShard[0].Round != 7 {
		t.Fatalf("realigning shard 1 moved shard 0 to round %d", st.PerShard[0].Round)
	}
}

// TestHostedCheckpointHook pins the synchronous checkpoint contract: by the
// time a tick call returns, the hook has observed the post-tick state of
// every open shard, and hook bytes restore decision-identically.
func TestHostedCheckpointHook(t *testing.T) {
	var mu sync.Mutex
	latest := map[int][]byte{}
	rounds := map[int]int64{}
	cfg := hostedConfig()
	cfg.OnShardCheckpoint = func(shard int, round int64, data []byte) error {
		mu.Lock()
		defer mu.Unlock()
		latest[shard] = append([]byte(nil), data...)
		rounds[shard] = round
		return nil
	}
	svc, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)
	for i := 0; i < 2; i++ {
		if _, err := svc.OpenShard(i, nil); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	for r := int64(0); r < 6; r++ {
		out, err := client.Submit(&SubmitRequest{Schema: WireSchema, Tenant: "alpha",
			Jobs: []SubmitJob{{ID: r, Color: int32(r % 3), Delay: 4}}})
		if err != nil || !out.Accepted {
			t.Fatalf("submit: out=%+v err=%v", out, err)
		}
		for i := 0; i < 2; i++ {
			if _, err := client.TickShardTo(i, 2, r+1); err != nil {
				t.Fatalf("tick shard %d: %v", i, err)
			}
		}
		mu.Lock()
		for i := 0; i < 2; i++ {
			if rounds[i] != r+1 {
				mu.Unlock()
				t.Fatalf("after tick %d: hook saw shard %d at round %d", r, i, rounds[i])
			}
		}
		mu.Unlock()
	}

	// The hook's last bytes equal a direct snapshot, and restoring them into
	// a second hosted service reproduces the recorded decision stream.
	shard := svc.ShardFor("alpha")
	direct, err := svc.SnapshotShard(shard)
	if err != nil {
		t.Fatalf("SnapshotShard: %v", err)
	}
	mu.Lock()
	hookBytes := latest[shard]
	mu.Unlock()
	if !bytes.Equal(direct, hookBytes) {
		t.Fatal("hook checkpoint diverges from a direct snapshot")
	}
	want, err := client.DecisionsRaw("alpha")
	if err != nil {
		t.Fatalf("DecisionsRaw: %v", err)
	}

	svc2, _, err := New(hostedConfig())
	if err != nil {
		t.Fatalf("New second host: %v", err)
	}
	defer svc2.Close()
	if _, err := svc2.OpenShard(shard, hookBytes); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	srv2 := httptest.NewServer(svc2.Handler())
	defer srv2.Close()
	got, err := NewClient(srv2.URL).DecisionsRaw("alpha")
	if err != nil {
		t.Fatalf("DecisionsRaw on new host: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("migrated decision stream diverges\ngot:  %.300s\nwant: %.300s", got, want)
	}
}

// TestHostedServiceTickRefused pins that a hosted service has no service-wide
// tick: its shards sit at the rounds their checkpoints carried, so a lockstep
// tick is refused — with or without open shards — and leaves every round
// counter alone.
func TestHostedServiceTickRefused(t *testing.T) {
	svc, _, err := New(hostedConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	if _, err := svc.Tick(1); err == nil {
		t.Fatal("Tick with no open shards succeeded")
	}
	if _, err := svc.OpenShard(0, nil); err != nil {
		t.Fatalf("open: %v", err)
	}
	if r, err := svc.TickShardTo(0, 3); err != nil || r != 3 {
		t.Fatalf("TickShardTo(0,3): r=%d err=%v", r, err)
	}
	if _, err := svc.Tick(1); err == nil {
		t.Fatal("Tick on a hosted service with an open shard succeeded")
	}
	if st := svc.Stats(); st.PerShard[0].Round != 3 {
		t.Fatalf("refused Tick moved shard 0 to round %d, want 3", st.PerShard[0].Round)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	if _, err := NewClientPolicy(srv.URL, SingleShot()).Tick(1); err == nil {
		t.Fatal("POST /v1/tick?rounds=1 on a hosted service succeeded")
	}
	if _, _, err := svc.CloseShard(0); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := svc.Tick(1); err == nil {
		t.Fatal("Tick after closing the last shard succeeded")
	}
	if got := svc.Round(); got != 3 {
		t.Fatalf("round counter moved to %d by a refused tick, want 3", got)
	}
}

// TestHostedTickTo pins the target tick's idempotence, which is the
// checkpoint-repair path: when a tick's hook push fails, the shard has still
// advanced; a retry at the same target re-offers the current state to the hook
// without ticking, and the bytes match a direct snapshot. A target the shard
// has passed is refused with no push.
func TestHostedTickTo(t *testing.T) {
	var mu sync.Mutex
	fail := false
	var gotRound int64 = -1
	var gotBytes []byte
	calls := 0
	cfg := hostedConfig()
	cfg.OnShardCheckpoint = func(shard int, round int64, data []byte) error {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if fail {
			return errors.New("injected push failure")
		}
		gotRound = round
		gotBytes = append([]byte(nil), data...)
		return nil
	}
	svc, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClientPolicy(srv.URL, SingleShot())

	// A target tick against a closed shard misdirects (classic 421 semantics).
	if _, err := client.TickShardTo(0, 2, 1); !errors.Is(err, ErrMisdirected) {
		t.Fatalf("tick on closed shard: err=%v", err)
	}
	if _, err := svc.OpenShard(0, nil); err != nil {
		t.Fatalf("open: %v", err)
	}

	// A tick whose hook push fails surfaces the error but keeps the round.
	mu.Lock()
	fail = true
	mu.Unlock()
	if _, err := svc.TickShardTo(0, 1); err == nil {
		t.Fatal("tick with failing hook succeeded")
	}
	if st := svc.Stats(); st.PerShard[0].Round != 1 {
		t.Fatalf("shard round after failed-push tick = %d, want 1", st.PerShard[0].Round)
	}
	mu.Lock()
	if gotRound != -1 {
		mu.Unlock()
		t.Fatalf("hook recorded round %d despite failing", gotRound)
	}
	fail = false
	mu.Unlock()

	// The retry at the same target closes the gap: the hook now holds round 1
	// without further ticking, and its bytes equal a direct snapshot.
	if r, err := client.TickShardTo(0, 2, 1); err != nil || r != 1 {
		t.Fatalf("retried TickShardTo: r=%d err=%v", r, err)
	}
	mu.Lock()
	round, bytesGot, pushes := gotRound, gotBytes, calls
	mu.Unlock()
	if round != 1 {
		t.Fatalf("hook saw round %d after the retry, want 1", round)
	}
	direct, err := svc.SnapshotShard(0)
	if err != nil {
		t.Fatalf("SnapshotShard: %v", err)
	}
	if !bytes.Equal(direct, bytesGot) {
		t.Fatal("re-pushed checkpoint diverges from a direct snapshot")
	}
	if st := svc.Stats(); st.PerShard[0].Round != 1 {
		t.Fatalf("the retry ticked the shard: round = %d, want 1", st.PerShard[0].Round)
	}

	// A target below the shard's round is refused: no tick, no push.
	if _, err := svc.TickShardTo(0, 3); err != nil {
		t.Fatalf("TickShardTo(0,3): %v", err)
	}
	mu.Lock()
	pushes = calls
	mu.Unlock()
	if r, err := client.TickShardTo(0, 2, 2); err == nil || r != 0 {
		t.Fatalf("target below the shard's round: r=%d err=%v, want refusal", r, err)
	}
	if r, err := svc.TickShardTo(0, 2); !errors.Is(err, errPastTarget) || r != 3 {
		t.Fatalf("TickShardTo(0,2) at round 3: r=%d err=%v, want errPastTarget", r, err)
	}
	mu.Lock()
	if calls != pushes {
		mu.Unlock()
		t.Fatalf("a refused target tick pushed %d checkpoints", calls-pushes)
	}
	mu.Unlock()
	// A tick routed by a placement of another shape (a sender that has not
	// seen a fleet reshard) misdirects without ticking or pushing.
	if _, err := client.TickShardTo(0, 4, 4); !errors.Is(err, ErrMisdirected) {
		t.Fatalf("tick routed for 4 shards on a 2-shard service: err=%v, want ErrMisdirected", err)
	}
	mu.Lock()
	if calls != pushes {
		mu.Unlock()
		t.Fatalf("a misdirected target tick pushed %d checkpoints", calls-pushes)
	}
	mu.Unlock()
	if st := svc.Stats(); st.PerShard[0].Round != 3 {
		t.Fatalf("a refused target tick moved the shard to round %d", st.PerShard[0].Round)
	}

	// Target ticks are hosted-only.
	classic, _, err := New(Config{Shards: 1, Resources: 8, Delta: 4, Watermark: 8})
	if err != nil {
		t.Fatalf("New classic: %v", err)
	}
	defer classic.Close()
	if _, err := classic.TickShardTo(0, 1); err == nil {
		t.Error("TickShardTo accepted on a classic service")
	}
}

// TestHostedConfigValidation pins the config cross-checks.
func TestHostedConfigValidation(t *testing.T) {
	bad := []Config{
		{Shards: 1, Resources: 8, Delta: 4, Watermark: 8, Hosted: true, StateDir: "x"},
		{Shards: 1, Resources: 8, Delta: 4, Watermark: 8, Hosted: true, RoundEvery: 1},
		{Shards: 1, Resources: 8, Delta: 4, Watermark: 8, OnShardCheckpoint: func(int, int64, []byte) error { return nil }},
		{Shards: 1, Resources: 8, Delta: 4, Watermark: 8, CheckpointDecisions: true},
	}
	for i, cfg := range bad {
		if _, _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	// Open/close/per-shard ticks are hosted-only.
	svc, _, err := New(Config{Shards: 1, Resources: 8, Delta: 4, Watermark: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	if _, err := svc.OpenShard(0, nil); err == nil {
		t.Error("OpenShard accepted on a classic service")
	}
	if _, _, err := svc.CloseShard(0); err == nil {
		t.Error("CloseShard accepted on a classic service")
	}
	if _, err := svc.TickShardTo(0, 1); err == nil {
		t.Error("TickShardTo accepted on a classic service")
	}
	if _, err := svc.SnapshotShard(5); err == nil {
		t.Error("SnapshotShard accepted an out-of-range shard")
	}
}
