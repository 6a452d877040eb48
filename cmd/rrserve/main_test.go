package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"

	"rrsched/internal/model"
	"rrsched/internal/serve"
	"rrsched/internal/stream"
	"rrsched/internal/workload"
)

// instance runs rrserve's run() in a goroutine with an injected signal
// channel, exactly as main wires it, and hands back the bound address.
type instance struct {
	sigs chan os.Signal
	done chan error
	addr string
	out  *bytes.Buffer
}

func startInstance(t *testing.T, args ...string) *instance {
	t.Helper()
	in := &instance{
		sigs: make(chan os.Signal, 1),
		done: make(chan error, 1),
		out:  &bytes.Buffer{},
	}
	ready := make(chan string, 1)
	go func() {
		in.done <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), in.out, in.sigs, ready)
	}()
	select {
	case in.addr = <-ready:
	case err := <-in.done:
		t.Fatalf("rrserve exited before binding: %v\n%s", err, in.out)
	}
	return in
}

// sigterm delivers SIGTERM and waits for run() to return.
func (in *instance) sigterm(t *testing.T) {
	t.Helper()
	in.sigs <- syscall.SIGTERM
	if err := <-in.done; err != nil {
		t.Fatalf("rrserve exited with error: %v\n%s", err, in.out)
	}
}

const (
	testShards = 2
	testRounds = 12
	cutRound   = 5
)

// mainTenants are the deterministic tenants whose decision streams the test
// pins; burstTenants exist to race submissions against the SIGTERM.
func mainTenants(t *testing.T) map[string]*model.Sequence {
	t.Helper()
	out := map[string]*model.Sequence{}
	for i, name := range []string{"main-a", "main-b", "main-c"} {
		seq, err := workload.RandomGeneral(workload.RandomConfig{
			Seed:        100 + int64(i),
			Delta:       4,
			Colors:      4,
			Rounds:      testRounds,
			MinDelayExp: 2,
			MaxDelayExp: 3,
			Load:        0.7,
		})
		if err != nil {
			t.Fatalf("workload: %v", err)
		}
		out[name] = seq.Canonical()
	}
	return out
}

func submitRound(t *testing.T, client *serve.Client, tenants map[string]*model.Sequence, r int64) {
	t.Helper()
	names := make([]string, 0, len(tenants))
	for name := range tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		jobs := tenants[name].Request(r)
		if len(jobs) == 0 {
			continue
		}
		wire := make([]serve.SubmitJob, len(jobs))
		for i, j := range jobs {
			wire[i] = serve.SubmitJob{ID: j.ID, Color: int32(j.Color), Delay: j.Delay}
		}
		out, err := client.Submit(&serve.SubmitRequest{Schema: serve.WireSchema, Tenant: name, Jobs: wire})
		if err != nil || !out.Accepted {
			t.Fatalf("submit %s round %d: out=%+v err=%v", name, r, out, err)
		}
	}
}

// TestSigtermMidBurstCheckpointRestore is the process-level chaos test: an
// rrserve instance is SIGTERMed while a burst of unrelated submissions is
// still arriving, must exit cleanly with per-shard checkpoint files, and a
// second instance restoring from them must finish the run with the main
// tenants' decision streams identical to a bare scheduler reference.
// Burst batches may individually land (before the drain) or bounce with 503
// (after) — either is correct; what must not happen is an error exit, a torn
// batch, or any effect on other tenants' decisions.
func TestSigtermMidBurstCheckpointRestore(t *testing.T) {
	stateDir := t.TempDir()
	tenants := mainTenants(t)
	args := []string{
		"-shards", fmt.Sprint(testShards),
		"-n", "8", "-delta", "4",
		"-state", stateDir,
		"-record-decisions",
	}

	// First incarnation: rounds [0, cutRound), then SIGTERM in the middle of
	// a concurrent burst.
	in1 := startInstance(t, args...)
	client1 := serve.NewClient("http://" + in1.addr)
	for r := int64(0); r < cutRound; r++ {
		submitRound(t, client1, tenants, r)
		if _, err := client1.Tick(1); err != nil {
			t.Fatalf("tick: %v", err)
		}
	}
	// Capture the decision prefix before the process "dies" (recordings are
	// in-memory; the checkpoint carries scheduler state, not history).
	prefix := map[string][]stream.Decision{}
	for name := range tenants {
		dr, err := client1.Decisions(name)
		if err != nil {
			t.Fatalf("prefix decisions %s: %v", name, err)
		}
		prefix[name] = dr.Decisions
	}
	var burst sync.WaitGroup
	for w := 0; w < 8; w++ {
		burst.Add(1)
		go func(w int) {
			defer burst.Done()
			for i := 0; i < 50; i++ {
				// Errors are fine mid-drain (connection teardown); outcomes
				// are fine either way. The assertion is the clean exit below.
				_, _ = client1.Submit(&serve.SubmitRequest{
					Schema: serve.WireSchema,
					Tenant: fmt.Sprintf("burst-%d", w),
					Jobs:   []serve.SubmitJob{{ID: int64(i), Color: 0, Delay: 4}},
				})
			}
		}(w)
	}
	in1.sigterm(t)
	burst.Wait()
	for i := 0; i < testShards; i++ {
		if _, err := os.Stat(filepath.Join(stateDir, fmt.Sprintf("manifest-%04d.json", i))); err != nil {
			t.Fatalf("missing manifest for shard %d: %v", i, err)
		}
	}
	if !strings.Contains(in1.out.String(), "checkpointed") {
		t.Fatalf("no checkpoint log line:\n%s", in1.out)
	}

	// Second incarnation restores and finishes the run (plus a drain tail so
	// every delay bound expires).
	in2 := startInstance(t, args...)
	client2 := serve.NewClient("http://" + in2.addr)
	stats, err := client2.Stats()
	if err != nil {
		t.Fatalf("stats after restore: %v", err)
	}
	if stats.Round != cutRound {
		t.Fatalf("restored at round %d, want %d", stats.Round, cutRound)
	}
	const totalTicks = testRounds + 10
	for r := int64(cutRound); r < totalTicks; r++ {
		if r < testRounds {
			submitRound(t, client2, tenants, r)
		}
		if _, err := client2.Tick(1); err != nil {
			t.Fatalf("tick: %v", err)
		}
	}

	// Reference: a bare scheduler per main tenant over the same arrivals.
	// The tenant exists from its first non-empty arrival round (its epoch),
	// and its decision stream runs in tenant-local rounds from there.
	for name, seq := range tenants {
		dr, err := client2.Decisions(name)
		if err != nil {
			t.Fatalf("restored decisions %s: %v", name, err)
		}
		// The streaming decision log survives the restart, so the restored
		// instance serves the tenant's FULL stream; the pre-SIGTERM capture
		// must be a literal prefix of it.
		combined := dr.Decisions
		if len(prefix[name]) > len(combined) {
			t.Fatalf("tenant %s: pre-crash stream longer than restored stream", name)
		}
		for i, dec := range prefix[name] {
			a, err := serve.MarshalResponse(dec)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			b, err := serve.MarshalResponse(combined[i])
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("tenant %s: restored stream rewrites pre-crash round %d", name, i)
			}
		}
		epoch := int64(0)
		for len(seq.Request(epoch)) == 0 {
			epoch++
		}
		if dr.Epoch != epoch {
			t.Fatalf("tenant %s: service epoch %d, want %d", name, dr.Epoch, epoch)
		}
		if int64(len(combined)) != totalTicks-epoch {
			t.Fatalf("tenant %s: %d decisions, want %d", name, len(combined), totalTicks-epoch)
		}
		sched, err := stream.New(stream.Config{Delta: 4, Resources: 8})
		if err != nil {
			t.Fatalf("stream.New: %v", err)
		}
		for local := int64(0); local < totalTicks-epoch; local++ {
			arrivals := seq.Request(local + epoch)
			jobs := make([]model.Job, len(arrivals))
			copy(jobs, arrivals)
			for i := range jobs {
				jobs[i].Arrival = local
			}
			sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
			want, err := sched.Push(local, jobs)
			if err != nil {
				t.Fatalf("reference push: %v", err)
			}
			a, err := serve.MarshalResponse(combined[local])
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			b, err := serve.MarshalResponse(want)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("tenant %s local round %d: decisions diverge across SIGTERM restore\ngot:  %s\nwant: %s", name, local, a, b)
			}
		}
	}
	in2.sigterm(t)
	// The buffer is only safe to read once run() has returned.
	if !strings.Contains(in2.out.String(), "restored") {
		t.Fatalf("no restore log line:\n%s", in2.out)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-shards", "0"}, &out, nil, nil); err == nil {
		t.Fatal("accepted -shards 0")
	}
	if err := run([]string{"-n", "6"}, &out, nil, nil); err == nil {
		t.Fatal("accepted -n 6")
	}
	if err := run([]string{"positional"}, &out, nil, nil); err == nil {
		t.Fatal("accepted positional arguments")
	}
	if err := run([]string{"-addr", "256.0.0.1:99999"}, &out, nil, nil); err == nil {
		t.Fatal("accepted an unlistenable address")
	}
}

func TestGracefulShutdownNoState(t *testing.T) {
	in := startInstance(t) // no -state: drain must skip the checkpoint
	client := serve.NewClient("http://" + in.addr)
	if !client.Ready() {
		t.Fatal("not ready")
	}
	in.sigterm(t)
	if strings.Contains(in.out.String(), "checkpointed") {
		t.Fatalf("checkpointed without -state:\n%s", in.out)
	}
	if !strings.Contains(in.out.String(), "rrserve: done") {
		t.Fatalf("no final summary:\n%s", in.out)
	}
}

// TestConvertMode: -convert rewrites the drained state dir of the last JSON
// build (the serve package's fixture) and a dispatcher dir holding a JSON
// shard image, each in place, and a second run finds nothing left to convert.
func TestConvertMode(t *testing.T) {
	src := filepath.Join("..", "..", "internal", "serve", "testdata", "v1-statedir")
	state := t.TempDir()
	if err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(state, filepath.Dir(rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(state, rel), data, 0o644)
	}); err != nil {
		t.Fatal(err)
	}
	dispatcher := t.TempDir()
	legacy := `{"schema":"rrdispatch-state/v1","shard":0,"shards":1,"epoch":2,"round":0,` +
		`"data":{"schema":"rrserve-state/v1","shard":0,"shards":1,"round":0}}`
	if err := os.WriteFile(filepath.Join(dispatcher, "shard-0000.json"), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		dir, first string
	}{
		{state, "converted 6 tenant chunks"},
		{dispatcher, "converted 1 dispatcher shard files"},
	} {
		for i, want := range []string{c.first, "converted 0 "} {
			var out bytes.Buffer
			if err := run([]string{"-convert", c.dir}, &out, nil, nil); err != nil {
				t.Fatalf("run -convert %s (pass %d): %v", c.dir, i+1, err)
			}
			if !strings.Contains(out.String(), want) {
				t.Fatalf("pass %d output %q, want %q", i+1, out.String(), want)
			}
		}
	}
	svc, _, err := serve.New(serve.Config{Shards: 2, Resources: 8, Delta: 4, Watermark: 64, RecordDecisions: true, StateDir: state})
	if err != nil {
		t.Fatalf("boot on the converted state dir: %v", err)
	}
	svc.Close()
}
