package dispatch

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"rrsched/internal/serve"
)

// TestCheckpointPushBinaryRoundTrip holds the binary checkpoint codec to the
// JSON one: both round-trip the same push to the same value, and the binary
// decoder runs the same validation.
func TestCheckpointPushBinaryRoundTrip(t *testing.T) {
	cp := &CheckpointPush{Schema: WireSchema, Worker: "w1", Shard: 1, Epoch: 2, Round: 9,
		Final: true, Data: json.RawMessage(`{"round":9}`)}
	frame, err := EncodeCheckpointPushBinary(cp)
	if err != nil {
		t.Fatalf("EncodeCheckpointPushBinary: %v", err)
	}
	got, err := DecodeCheckpointPushBinary(frame)
	if err != nil {
		t.Fatalf("DecodeCheckpointPushBinary: %v", err)
	}
	if got.Worker != cp.Worker || got.Shard != cp.Shard || got.Epoch != cp.Epoch ||
		got.Round != cp.Round || !got.Final || !bytes.Equal(got.Data, cp.Data) {
		t.Fatalf("binary round trip: %+v != %+v", got, cp)
	}
	// The decoded Data must not alias the frame (the dispatcher retains it).
	frame[len(frame)-2] ^= 0xff
	if !bytes.Equal(got.Data, cp.Data) {
		t.Fatal("decoded checkpoint data aliases the input frame")
	}

	// Validation parity with the JSON decoder.
	bad := []*CheckpointPush{
		{Schema: WireSchema, Worker: "w", Shard: MaxShards, Epoch: 1, Round: 0, Data: json.RawMessage(`{}`)},
		{Schema: WireSchema, Worker: "w", Shard: 0, Epoch: -1, Round: 0, Data: json.RawMessage(`{}`)},
	}
	for _, cp := range bad {
		if _, err := EncodeCheckpointPushBinary(cp); err == nil {
			t.Errorf("binary encoder accepted invalid push %+v", cp)
		}
	}
	if _, err := DecodeCheckpointPushBinary([]byte("not a frame")); err == nil {
		t.Error("binary decoder accepted garbage")
	}
}

// registerAndLease registers a worker over HTTP and heartbeats until it holds
// every shard, returning the held leases.
func registerAndLease(t *testing.T, c *Client, worker string) []LeaseInfo {
	t.Helper()
	reg, err := c.Register(worker, "http://127.0.0.1:1")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	var held []LeaseInfo
	for i := 0; i < 4; i++ {
		resp, err := c.Heartbeat(&HeartbeatRequest{Schema: WireSchema, Worker: worker, Held: held}, 0)
		if err != nil {
			t.Fatalf("heartbeat: %v", err)
		}
		held = heldFromGrants(held, resp)
		if len(held) == reg.Config.Shards {
			return held
		}
	}
	t.Fatalf("worker %s never acquired all shards (held %d)", worker, len(held))
	return nil
}

// TestCheckpointPushBinaryHTTP pushes a checkpoint through the real HTTP
// stack with the default client: the push travels as a binary frame, lands,
// and a stale-epoch binary push is fenced with the same 409 the JSON path
// gets.
func TestCheckpointPushBinaryHTTP(t *testing.T) {
	d, _ := newTestDispatcher(t, testConfig())
	var binarySeen atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if serve.IsBinaryContent(r.Header.Get("Content-Type")) {
			binarySeen.Add(1)
		}
		d.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()
	c := NewClient(srv.URL)

	held := registerAndLease(t, c, "w1")
	lease := held[0]
	if err := c.PushCheckpoint(&CheckpointPush{
		Schema: WireSchema, Worker: "w1", Shard: lease.Shard, Epoch: lease.Epoch,
		Round: 1, Data: json.RawMessage(`{"round":1}`),
	}); err != nil {
		t.Fatalf("binary checkpoint push: %v", err)
	}
	if n := binarySeen.Load(); n != 1 {
		t.Fatalf("dispatcher saw %d binary frames after one push, want 1", n)
	}
	if err := c.PushCheckpoint(&CheckpointPush{
		Schema: WireSchema, Worker: "w1", Shard: lease.Shard, Epoch: lease.Epoch - 1,
		Round: 2, Data: json.RawMessage(`{"round":2}`),
	}); !errors.Is(err, ErrStale) {
		t.Fatalf("stale binary push err=%v, want ErrStale", err)
	}
	if n := binarySeen.Load(); n != 2 {
		t.Fatalf("dispatcher saw %d binary frames after two pushes, want 2", n)
	}
	// The landed push is visible in the placement table's round.
	p, err := c.Placement()
	if err != nil {
		t.Fatalf("placement: %v", err)
	}
	if p.Shards[lease.Shard].Round != 1 {
		t.Fatalf("shard %d stored round %d, want 1", lease.Shard, p.Shards[lease.Shard].Round)
	}
}
