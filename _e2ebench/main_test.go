package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"rrsched/internal/serve"
	"rrsched/internal/stream"
)

// tinyScale keeps every workload's shape (the burst spans several batches in
// one round; paging tenants come back after they were paged out) at a size a
// test can run in seconds.
var tinyScale = map[string]scale{
	"burst":  {rounds: 24, burstJobs: 2*maxBatch + 100},
	"paging": {rounds: 130, pagingTenants: 40},
	"fleet":  {rounds: 12},
}

func lastLine(out string) string {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	return lines[len(lines)-1]
}

type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for _, name := range []string{"burst", "paging", "fleet"} {
		t.Run(name, func(t *testing.T) {
			rep, err := bench(options{workload: name, seed: 3, seconds: 0.01, trace: true, out: t.TempDir(), sc: tinyScale[name], conns: 2}, &bytes.Buffer{})
			if err != nil {
				t.Fatal(err)
			}
			for _, trace := range []bool{false, true} {
				var out bytes.Buffer
				if err := rep.print(&out, trace); err != nil {
					t.Fatal(err)
				}
				var res result
				if err := json.Unmarshal([]byte(lastLine(out.String())), &res); err != nil {
					t.Fatalf("last line is not the JSON result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v, want correct with no failures\n%s", res, out.String())
				}
				want := endToEndMetrics
				if trace {
					want = perLayerMetrics
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("trace=%v: metric %s = %+v, want unit %q", trace, d.name, m, d.unit)
					}
				}
				printed := map[string]string{}
				for _, line := range strings.Split(out.String(), "\n") {
					if f := strings.Fields(line); len(f) == 4 && f[0] == "metric" {
						printed[f[1]] = f[3]
					}
				}
				for _, d := range append(append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...), reportOnly...) {
					if printed[d.name] != d.unit {
						t.Errorf("report prints %s with unit %q, want %q", d.name, printed[d.name], d.unit)
					}
				}
			}
			if v := rep.values["ckpt.faultins"]; (name == "paging") != (v > 0) {
				t.Errorf("ckpt.faultins = %v on %s", v, name)
			}
			if v := rep.values["dispatch.pushes_per_round"]; (name == "fleet") != (v > 0) {
				t.Errorf("dispatch.pushes_per_round = %v on %s", v, name)
			}
		})
	}
}

// servedRun runs a tiny plan once on a recording service and returns it
// still open, with the plan and its arrivals.
func servedRun(t *testing.T) (system, *plan, []arrivals, *episode) {
	t.Helper()
	p, err := buildPlan("burst", 5, tinyScale["burst"])
	if err != nil {
		t.Fatal(err)
	}
	sys, err := startSystem(p, 2, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _, _ = sys.close() })
	e, err := runEpisode(sys, p, partition(p, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys, p, tenantArrivals(p), e
}

func TestPerturbedOracleFailsTheCheck(t *testing.T) {
	sys, p, arr, e := servedRun(t)
	want, err := verifyStreams(p, arr, sys.decisions, nil)
	if err != nil {
		t.Fatalf("unperturbed oracle: %v", err)
	}
	rep := &report{correct: true}
	rep.check("episode", e, want)
	if !rep.correct {
		t.Fatalf("unperturbed totals fail: %v", rep.problems)
	}

	// One extra dropped job in one round of one tenant's oracle stream.
	_, err = verifyStreams(p, arr, sys.decisions, func(decs []stream.Decision) {
		decs[len(decs)/2].Dropped = append(decs[len(decs)/2].Dropped, 1<<40)
	})
	if err == nil || !strings.Contains(err.Error(), "differs from the bare scheduler") {
		t.Fatalf("perturbed decision stream passed the check: %v", err)
	}
	want.dropped++
	rep = &report{correct: true}
	rep.check("episode", e, want)
	if rep.correct {
		t.Fatal("perturbed oracle totals passed the check")
	}
}

func TestOutOfOrderDuplicateCountsAsFailure(t *testing.T) {
	jobs := func(lo, n int) []serve.SubmitJob {
		js := make([]serve.SubmitJob, n)
		for i := range js {
			js[i] = serve.SubmitJob{ID: int64(lo + i), Color: 0, Delay: 4}
		}
		return js
	}
	p := &plan{
		name:    "ordering",
		tenants: []string{"t0"},
		rounds:  [][]batch{{{tenant: 0, jobs: jobs(0, 3)}, {tenant: 0, jobs: jobs(3, 3)}}},
		total:   6,
		cfg:     serve.Config{Shards: 1, Resources: resources, Delta: delta, Watermark: watermark},
	}
	sys, err := startSystem(p, 1, false, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _, _ = sys.close() }()
	// The later batch lands first, so the earlier one is answered 409.
	work := []connWork{{{p.rounds[0][1], p.rounds[0][0]}}}
	e, err := runEpisode(sys, p, work, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.sub.duplicate != 1 || e.sub.accepted != 3 {
		t.Fatalf("submit stats %+v, want one duplicate and 3 accepted jobs", e.sub)
	}
	rep := &report{correct: true}
	rep.endToEnd([]*episode{e}, []int64{1})
	if got, want := rep.values["failed_frac"], 1.0/float64(2+p.total); got != want {
		t.Fatalf("failed_frac = %v, want %v", got, want)
	}
	rep.check("episode", e, totals{})
	if rep.failed != 1 {
		t.Fatalf("failed = %d, want 1", rep.failed)
	}
}

func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, the benchmark %s %s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", cfg.EndToEnd, endToEndMetrics)
	same("per_layer", cfg.PerLayer, perLayerMetrics)
	for _, w := range cfg.Workloads {
		if _, ok := defaultScale[w.Name]; !ok {
			t.Errorf("workload %s is not one the benchmark runs", w.Name)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", "burst", "--trace", "2"},
		{"--workload", "burst", "extra"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want a failure and no result", args, code, out.String())
		}
	}
}
