package dispatch

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"sync/atomic"
	"testing"
	"time"
)

// TestSelfFenceBoundedByWallClock pins the fence-timing contract: a worker
// facing a packet-blackhole partition — heartbeats hang instead of failing
// fast — must fence itself within the wall-clock heartbeat budget. The old
// attempt-counting fence needed missBudget *completed* attempts, each hostage
// to the transport's 30s timeout, leaving a ~90s split-brain window after the
// dispatcher had already failed the shards over.
func TestSelfFenceBoundedByWallClock(t *testing.T) {
	const every = 40 * time.Millisecond
	var beats atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/register", func(w http.ResponseWriter, r *http.Request) {
		resp, err := json.Marshal(RegisterResponse{
			Schema:           WireSchema,
			Config:           ServiceConfig{Shards: 1, Resources: 8, Delta: 4, Watermark: 8},
			HeartbeatEveryMs: every.Milliseconds(),
			MissBudget:       3,
		})
		if err != nil {
			t.Errorf("encoding register response: %v", err)
		}
		_, _ = w.Write(resp)
	})
	mux.HandleFunc("/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server can detect the client abandoning the
		// request (and cancel r.Context) once the worker's timeout fires.
		_, _ = io.Copy(io.Discard, r.Body)
		if beats.Add(1) == 1 {
			resp, err := json.Marshal(HeartbeatResponse{
				Schema: WireSchema,
				Grants: []LeaseGrant{{Shard: 0, Epoch: 1, Round: 0}},
			})
			if err != nil {
				t.Errorf("encoding heartbeat response: %v", err)
			}
			_, _ = w.Write(resp)
			return
		}
		<-r.Context().Done() // blackhole: hang until the client gives up
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	w, err := StartWorker("w1", srv.URL, "127.0.0.1:0", io.Discard)
	if err != nil {
		t.Fatalf("StartWorker: %v", err)
	}
	defer w.Kill()

	deadline := time.Now().Add(5 * time.Second)
	for len(w.Held()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("grant never applied")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Every heartbeat from here on hangs. The fence must fire once the
	// wall-clock budget (3 × 40ms) since the last success elapses, plus
	// scheduling slack — nowhere near the 30s transport default.
	start := time.Now()
	for len(w.Held()) != 0 {
		if time.Since(start) > 2*time.Second {
			t.Fatal("worker did not fence within the wall-clock heartbeat budget")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRoundSurvivesLostCheckpointPush pins that a target tick succeeds only
// once the dispatcher stored the shard at the target: a round whose tick
// advanced the shard but whose checkpoint push was lost in flight must not
// count as done until the store has caught up (the driver's re-sent tick at
// the same target re-pushes), or a crash right after the round would restore
// the shard two rounds behind the driver and silently drop a round's
// arrivals.
func TestRoundSurvivesLostCheckpointPush(t *testing.T) {
	d, err := New(Config{
		Service:        ServiceConfig{Shards: 4, Resources: 8, Delta: 4, Watermark: 1 << 16, RecordDecisions: true},
		HeartbeatEvery: 50 * time.Millisecond,
		MissBudget:     2,
	})
	if err != nil {
		t.Fatalf("New dispatcher: %v", err)
	}
	t.Cleanup(d.Close)
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)

	// A proxy in front of the dispatcher that can drop checkpoint pushes: the
	// worker registers and heartbeats through it, so only its push path is
	// faulted.
	target, err := url.Parse(srv.URL)
	if err != nil {
		t.Fatalf("parsing dispatcher URL: %v", err)
	}
	rp := httputil.NewSingleHostReverseProxy(target)
	var dropPushes atomic.Int32
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/checkpoint" && dropPushes.Load() > 0 {
			dropPushes.Add(-1)
			http.Error(w, `{"error":"injected checkpoint loss"}`, http.StatusBadGateway)
			return
		}
		rp.ServeHTTP(w, r)
	}))
	t.Cleanup(proxy.Close)

	w1, err := StartWorker("w1", proxy.URL, "127.0.0.1:0", io.Discard)
	if err != nil {
		t.Fatalf("StartWorker w1: %v", err)
	}
	t.Cleanup(w1.Kill)
	waitAssigned(t, d, 4)

	driver, err := NewDriver(srv.URL, DriverConfig{Attempts: 400, RetryEvery: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	tenants := failoverFixture(t, 99)

	const faultRound = 6
	for r := int64(0); r < foTotalRounds; r++ {
		batches := batchesAt(tenants, r)
		if r == faultRound {
			// Drop the next two pushes: this round's first tick advances its
			// shard while the store stays behind, and the first re-sent tick's
			// re-push is lost too. Round must not return until the store has
			// caught up anyway.
			dropPushes.Store(2)
		}
		if err := driver.Round(batches); err != nil {
			t.Fatalf("round %d: %v", r+1, err)
		}
		if r == faultRound {
			if n := dropPushes.Load(); n != 0 {
				t.Fatalf("fault not exercised: %d injected push drops unconsumed", n)
			}
			// The worker dies before it pushes anything newer. The stored
			// checkpoints the driver just confirmed are all the failover has.
			w1.Kill()
			w2, err := StartWorker("w2", srv.URL, "127.0.0.1:0", io.Discard)
			if err != nil {
				t.Fatalf("StartWorker w2: %v", err)
			}
			t.Cleanup(w2.Kill)
		}
	}

	verifyStreams(t, driver, tenants, d.cfg.Service)
}
