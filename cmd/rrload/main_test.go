package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rrsched/internal/dispatch"
	"rrsched/internal/serve"
)

func startServer(t *testing.T) string {
	t.Helper()
	svc, _, err := serve.New(serve.Config{Shards: 2, Resources: 8, Delta: 4, Watermark: 1 << 16})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return srv.URL
}

func TestRunQuick(t *testing.T) {
	url := startServer(t)
	outFile := filepath.Join(t.TempDir(), "stats.json")
	var out bytes.Buffer
	err := run([]string{"-addr", url, "-quick", "-seed", "7", "-out", outFile}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{"accepted=", "rejected(429)=", "jobs/s", "latency:"} {
		if !strings.Contains(text, want) {
			t.Fatalf("summary lacks %q:\n%s", want, text)
		}
	}
	// Quick preset with a huge watermark: everything is accepted and, after
	// the drain ticks, everything has resolved.
	if strings.Contains(text, "rejected(429)=0") == false {
		t.Fatalf("quick run saw rejections:\n%s", text)
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatalf("stats artifact: %v", err)
	}
	if !strings.Contains(string(data), serve.StatsSchema) {
		t.Fatalf("artifact lacks stats schema:\n%s", data)
	}
	if !strings.Contains(string(data), `"backlog": 0`) {
		t.Fatalf("artifact shows undrained backlog:\n%s", data)
	}
}

func TestRunDeterministicAcceptCounts(t *testing.T) {
	// Two runs with the same seed against fresh servers must accept the same
	// job count (latency and wall-clock vary; the workload must not).
	counts := make([]string, 2)
	for i := range counts {
		var out bytes.Buffer
		if err := run([]string{"-addr", startServer(t), "-quick", "-seed", "11"}, &out); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "submitted:") {
				counts[i] = line
			}
		}
	}
	if counts[0] == "" || counts[0] != counts[1] {
		t.Fatalf("seeded runs disagree:\n%q\n%q", counts[0], counts[1])
	}
}

// TestRunDispatchedFleet drives the -dispatcher mode end to end: an
// in-process rrdispatch plus one worker, the quick preset routed through the
// placement table, and a fully drained fleet at the end.
func TestRunDispatchedFleet(t *testing.T) {
	d, err := dispatch.New(dispatch.Config{
		Service:        dispatch.ServiceConfig{Shards: 2, Resources: 8, Delta: 4, Watermark: 1 << 16},
		HeartbeatEvery: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("dispatch.New: %v", err)
	}
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	w, err := dispatch.StartWorker("w1", srv.URL, "127.0.0.1:0", io.Discard)
	if err != nil {
		t.Fatalf("StartWorker: %v", err)
	}
	defer w.Kill()
	deadline := time.Now().Add(10 * time.Second)
	for d.Stats().Assigned != 2 {
		if time.Now().After(deadline) {
			t.Fatal("shards never assigned")
		}
		time.Sleep(10 * time.Millisecond)
	}

	outFile := filepath.Join(t.TempDir(), "stats.json")
	var out bytes.Buffer
	if err := run([]string{"-dispatcher", srv.URL, "-quick", "-seed", "5", "-out", outFile}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "dispatched mode") || !strings.Contains(text, "jobs/s") {
		t.Fatalf("summary lacks dispatched-mode report:\n%s", text)
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatalf("stats artifact: %v", err)
	}
	if !strings.Contains(string(data), `"backlog": 0`) {
		t.Fatalf("artifact shows undrained backlog:\n%s", data)
	}
}

func TestRunBackpressure(t *testing.T) {
	// A tiny watermark forces 429s; rrload must report them as rejections and
	// still exit cleanly (open-loop drop, not a failure).
	svc, _, err := serve.New(serve.Config{Shards: 1, Resources: 8, Delta: 4, Watermark: 4})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Close()
	var out bytes.Buffer
	if err := run([]string{"-addr", srv.URL, "-quick", "-batch", "8", "-seed", "3"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "rejected(429)=0") {
		t.Fatalf("tiny watermark produced no 429s:\n%s", out.String())
	}
}

// TestRunSparseEvicts drives the high-cardinality paging scenario against a
// server with cold-tenant eviction on: most one-burst tenants must be paged
// out by the end of the run, the summary must carry the paging line, and the
// stats artifact must record the server RSS sample.
func TestRunSparseEvicts(t *testing.T) {
	svc, _, err := serve.New(serve.Config{
		Shards:     2,
		Resources:  8,
		Delta:      4,
		Watermark:  1 << 16,
		StateDir:   t.TempDir(),
		EvictAfter: 2,
	})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Close()

	outFile := filepath.Join(t.TempDir(), "stats.json")
	var out bytes.Buffer
	if err := run([]string{"-addr", srv.URL, "-sparse", "400", "-rounds", "16", "-out", outFile}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "sparse mode, 400 one-burst tenants") {
		t.Fatalf("summary lacks sparse-mode banner:\n%s", text)
	}
	if !strings.Contains(text, "paging:") || !strings.Contains(text, "evicted=") {
		t.Fatalf("summary lacks the paging line:\n%s", text)
	}
	// rrload's drain tail settles every job but stops inside the last bursts'
	// eviction window; a few idle ticks later the whole universe must be cold.
	client := serve.NewClient(srv.URL)
	if _, err := client.Tick(8); err != nil {
		t.Fatalf("idle ticks: %v", err)
	}
	stats := svc.Stats()
	if stats.Totals.Accepted != 400*4 {
		t.Fatalf("accepted %d jobs, want %d", stats.Totals.Accepted, 400*4)
	}
	if stats.Totals.Evicted != 400 || stats.Totals.Tenants != 0 {
		t.Fatalf("evicted=%d resident=%d, want all 400 paged out", stats.Totals.Evicted, stats.Totals.Tenants)
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatalf("stats artifact: %v", err)
	}
	if !strings.Contains(string(data), `"evicted"`) {
		t.Fatalf("artifact lacks eviction counters:\n%s", data)
	}
	if !strings.Contains(string(data), `"rss_bytes"`) {
		t.Fatalf("artifact lacks the rss_bytes sample:\n%s", data)
	}
}

// TestRunSparseRejectsIncompatibleModes pins the flag surface: sparse mode is
// a plain-server scenario.
func TestRunSparseRejectsIncompatibleModes(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-sparse", "10", "-dispatcher", "http://127.0.0.1:1"}, &out); err == nil {
		t.Fatal("accepted -sparse with -dispatcher")
	}
	if err := run([]string{"-sparse", "10", "-classes", "gold"}, &out); err == nil {
		t.Fatal("accepted -sparse with -classes")
	}
	if err := run([]string{"-sparse", "10", "-sparse-jobs", "0"}, &out); err == nil {
		t.Fatal("accepted -sparse-jobs 0")
	}
}

func TestRunMinRate(t *testing.T) {
	var out bytes.Buffer
	// No realistic run moves 1e12 jobs/s; the threshold must trip.
	err := run([]string{"-addr", startServer(t), "-quick", "-min-rate", "1e12"}, &out)
	if err == nil || !strings.Contains(err.Error(), "below -min-rate") {
		t.Fatalf("min-rate err = %v", err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-tenants", "0"}, &out); err == nil {
		t.Fatal("accepted -tenants 0")
	}
	if err := run([]string{"extra"}, &out); err == nil {
		t.Fatal("accepted positional arguments")
	}
	if err := run([]string{"-addr", "http://127.0.0.1:1"}, &out); err == nil || !strings.Contains(err.Error(), "not healthy") {
		t.Fatalf("unreachable server err = %v", err)
	}
}

// TestSubmitTasksKeepsTenantBatchOrder: with two connections, every batch of
// a tenant whose round spans several batches must be admitted. The server
// admits a tenant's IDs in increasing order, so a later batch overtaking an
// earlier one on the other connection would get the earlier one answered
// 409 Duplicate and never admitted.
func TestSubmitTasksKeepsTenantBatchOrder(t *testing.T) {
	client := serve.NewClient(startServer(t))
	total := &result{}
	want := int64(0)
	ids := map[string]int64{}
	batch := func(tenant string, n int) submitTask {
		jobs := make([]serve.SubmitJob, n)
		for i := range jobs {
			jobs[i] = serve.SubmitJob{ID: ids[tenant], Color: int32(i % 3), Delay: 8}
			ids[tenant]++
		}
		want += int64(n)
		return submitTask{tenant: tenant, jobs: jobs}
	}
	for r := 0; r < 8; r++ {
		var tasks []submitTask
		for b := 0; b < 6; b++ {
			tasks = append(tasks, batch("burst", 32))
			tasks = append(tasks, batch(fmt.Sprintf("steady-%d", b), 4))
		}
		submitTasks(client, tasks, 2, total)
		if _, err := client.Tick(1); err != nil {
			t.Fatal(err)
		}
	}
	if total.submitted != want || total.accepted != want {
		t.Fatalf("submitted %d, accepted %d of %d jobs (rejected %d, refused %d)",
			total.submitted, total.accepted, want, total.rejected, total.refused)
	}
}
