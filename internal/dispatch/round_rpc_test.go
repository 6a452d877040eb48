package dispatch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"sync"
	"testing"
	"time"

	"rrsched/internal/serve"
)

// requestCounter is a counting reverse proxy: it tallies every request by
// "METHOD path" — plus per-shard keys for ticks and checkpoint pushes — and
// forwards it unchanged, except that it can rewrite response bodies.
type requestCounter struct {
	mu     sync.Mutex
	counts map[string]int
	srv    *httptest.Server
}

func newRequestCounter(t *testing.T, target string, rewrite func(*http.Response) error) *requestCounter {
	t.Helper()
	u, err := url.Parse(target)
	if err != nil {
		t.Fatalf("parsing %s: %v", target, err)
	}
	rp := httputil.NewSingleHostReverseProxy(u)
	rp.ModifyResponse = rewrite
	c := &requestCounter{counts: map[string]int{}}
	c.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		keys := []string{r.Method + " " + r.URL.Path}
		switch r.URL.Path {
		case "/v1/tick":
			keys = append(keys, "tick shard "+r.URL.Query().Get("shard"))
		case "/v1/checkpoint":
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			push, err := DecodeCheckpointPushBinary(body)
			if !serve.IsBinaryContent(r.Header.Get("Content-Type")) {
				push, err = DecodeCheckpointPush(body)
			}
			if err == nil {
				keys = append(keys, fmt.Sprintf("checkpoint shard %d", push.Shard))
			}
		}
		c.mu.Lock()
		for _, k := range keys {
			c.counts[k]++
		}
		c.mu.Unlock()
		rp.ServeHTTP(w, r)
	}))
	t.Cleanup(c.srv.Close)
	return c
}

// take returns the counts since the last take and resets them.
func (c *requestCounter) take() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.counts
	c.counts = map[string]int{}
	return out
}

// TestFleetRoundIsOneRequestPerShard pins the driver's common path: a
// fault-free Round costs, per shard, exactly one POST /v1/tick to the shard's
// worker and the one checkpoint push that tick makes to the dispatcher — no
// stats or placement reads. Counting proxies sit in front of both workers and
// the dispatcher; the dispatcher's proxy rewrites placement so the driver
// reaches the workers through theirs.
func TestFleetRoundIsOneRequestPerShard(t *testing.T) {
	const shards, rounds = 4, 6
	d, err := New(Config{
		Service:        ServiceConfig{Shards: shards, Resources: 8, Delta: 4, Watermark: 1 << 16},
		HeartbeatEvery: 50 * time.Millisecond,
		MissBudget:     4,
	})
	if err != nil {
		t.Fatalf("New dispatcher: %v", err)
	}
	t.Cleanup(d.Close)
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)

	var proxyMu sync.Mutex
	proxyOf := map[string]string{} // worker address → its counting proxy
	disp := newRequestCounter(t, srv.URL, func(resp *http.Response) error {
		if resp.Request.URL.Path != "/v1/placement" || resp.StatusCode != http.StatusOK {
			return nil
		}
		var p PlacementResponse
		if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
			return err
		}
		proxyMu.Lock()
		for i := range p.Shards {
			if addr, ok := proxyOf[p.Shards[i].Addr]; ok {
				p.Shards[i].Addr = addr
			}
		}
		proxyMu.Unlock()
		body, err := json.Marshal(&p)
		if err != nil {
			return err
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		resp.ContentLength = int64(len(body))
		resp.Header.Del("Content-Length")
		return nil
	})
	var workers []*requestCounter
	for _, name := range []string{"w1", "w2"} {
		w, err := StartWorker(name, disp.srv.URL, "127.0.0.1:0", io.Discard)
		if err != nil {
			t.Fatalf("StartWorker %s: %v", name, err)
		}
		t.Cleanup(w.Kill)
		wc := newRequestCounter(t, w.Addr(), nil)
		proxyMu.Lock()
		proxyOf[w.Addr()] = wc.srv.URL
		proxyMu.Unlock()
		workers = append(workers, wc)
	}
	// Wait out the fair-share rebalance: each worker settles on two shards,
	// so no revoke (and its final push) lands inside the measured rounds.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := d.Stats()
		settled := st.Assigned == shards
		for _, w := range st.Workers {
			settled = settled && w.Held == shards/2
		}
		if settled && len(st.Workers) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never settled: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	driver, err := NewDriver(disp.srv.URL, DriverConfig{Attempts: 3, RetryEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	tenants := failoverFixture(t, 3)
	disp.take()
	for _, wc := range workers {
		wc.take()
	}
	for r := int64(0); r < rounds; r++ {
		if err := driver.Round(batchesAt(tenants, r)); err != nil {
			t.Fatalf("round %d: %v", r+1, err)
		}
	}

	dc := disp.take()
	wcs := map[string]int{}
	for _, wc := range workers {
		for k, n := range wc.take() {
			wcs[k] += n
		}
	}
	if n := wcs["POST /v1/tick"]; n != shards*rounds {
		t.Errorf("POST /v1/tick: %d requests over %d rounds of %d shards, want %d", n, rounds, shards, shards*rounds)
	}
	if n := dc["POST /v1/checkpoint"]; n != shards*rounds {
		t.Errorf("POST /v1/checkpoint: %d pushes over %d rounds of %d shards, want %d", n, rounds, shards, shards*rounds)
	}
	for shard := 0; shard < shards; shard++ {
		if n := wcs[fmt.Sprintf("tick shard %d", shard)]; n != rounds {
			t.Errorf("shard %d: %d ticks over %d rounds, want one per round", shard, n, rounds)
		}
		if n := dc[fmt.Sprintf("checkpoint shard %d", shard)]; n != rounds {
			t.Errorf("shard %d: %d checkpoint pushes over %d rounds, want one per round", shard, n, rounds)
		}
	}
	for _, key := range []string{"GET /v1/stats", "GET /v1/placement"} {
		if n := wcs[key] + dc[key]; n != 0 {
			t.Errorf("%s: %d requests on the fault-free path, want 0", key, n)
		}
	}
	if wcs["POST /v1/jobs"] == 0 {
		t.Error("no submissions reached the workers through their proxies")
	}
	p, err := NewClient(srv.URL).Placement()
	if err != nil {
		t.Fatalf("Placement: %v", err)
	}
	for _, e := range p.Shards {
		if e.Round != rounds {
			t.Errorf("shard %d stored at round %d, want %d", e.Shard, e.Round, rounds)
		}
	}
}
