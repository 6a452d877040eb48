package perf

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func sampleReport(results ...Result) *Report {
	r := NewReport()
	r.Results = results
	r.Sort()
	return r
}

func res(name string, ns, allocs, bs float64) Result {
	return Result{Name: name, Iterations: 10, RoundsPerOp: 100, NsPerRound: ns, AllocsPerRound: allocs, BytesPerRound: bs}
}

func TestReportRoundTrip(t *testing.T) {
	want := sampleReport(res("engine/n8", 1200, 2.5, 500), res("queue/ring", 11, 0, 0))
	var buf bytes.Buffer
	if err := want.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema {
		t.Errorf("schema %q after round-trip", got.Schema)
	}
	if len(got.Results) != 2 || got.Results[0] != want.Results[0] || got.Results[1] != want.Results[1] {
		t.Errorf("results differ after round-trip: %+v", got.Results)
	}
	if got.Machine != want.Machine {
		t.Errorf("machine fields differ: %+v vs %+v", got.Machine, want.Machine)
	}
}

func TestReadReportRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"wrong schema":   `{"schema":"other/v9","machine":{},"results":[]}`,
		"unknown field":  `{"schema":"` + Schema + `","machine":{},"results":[],"extra":1}`,
		"unnamed result": `{"schema":"` + Schema + `","machine":{},"results":[{"name":"","rounds_per_op":1}]}`,
		"bad rounds":     `{"schema":"` + Schema + `","machine":{},"results":[{"name":"x","rounds_per_op":0}]}`,
		"not json":       `][`,
	}
	for name, in := range cases {
		if _, err := ReadReport(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	base := sampleReport(res("a", 100, 10, 1000), res("b", 100, 10, 1000))
	cur := sampleReport(
		res("a", 140, 10, 1000), // ns up 40%: regression at threshold 0.25
		res("b", 80, 12, 900),   // ns improved, allocs up 20%: under threshold
	)
	regs := Compare(base, cur, 0.25)
	if len(regs) != 1 {
		t.Fatalf("got %d regressions %v, want exactly the ns/round one on a", len(regs), regs)
	}
	if regs[0].Scenario != "a" || regs[0].Metric != "ns/round" {
		t.Errorf("unexpected regression %+v", regs[0])
	}
	if math.Abs(regs[0].Change-0.4) > 1e-9 {
		t.Errorf("change = %v, want 0.4", regs[0].Change)
	}
	if s := regs[0].String(); !strings.Contains(s, "a") || !strings.Contains(s, "ns/round") {
		t.Errorf("regression string %q lacks scenario or metric", s)
	}
}

func TestCompareFlagsCheckpointBytes(t *testing.T) {
	grown, same := res("grown", 100, 10, 1000), res("same", 100, 10, 1000)
	grown.CheckpointBytes, same.CheckpointBytes = 1000, 1000
	base := sampleReport(grown, same, res("none", 100, 10, 1000))
	grown.CheckpointBytes = 1300
	cur := sampleReport(grown, same, res("none", 100, 10, 1000))
	regs := Compare(base, cur, 0.25)
	if len(regs) != 1 || regs[0].Scenario != "grown" || regs[0].Metric != "checkpoint B" {
		t.Fatalf("got regressions %v, want exactly checkpoint B on grown", regs)
	}
}

func TestCompareSkipsMissingAndQuick(t *testing.T) {
	quick := res("q", 1, 1, 1)
	quick.Quick = true
	base := sampleReport(res("gone", 1, 1, 1), quick)
	cur := sampleReport(res("new", 1000, 50, 9000), Result{Name: "q", Iterations: 1, RoundsPerOp: 100, Quick: true, NsPerRound: 999})
	if regs := Compare(base, cur, 0.1); len(regs) != 0 {
		t.Errorf("missing/quick scenarios produced regressions: %v", regs)
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	base := sampleReport(res("a", 50, 0, 100))
	cur := sampleReport(res("a", 50, 3, 100))
	regs := Compare(base, cur, 0.25)
	if len(regs) != 1 || regs[0].Metric != "allocs/round" || !math.IsInf(regs[0].Change, 1) {
		t.Errorf("zero-baseline alloc growth not flagged as infinite regression: %v", regs)
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != len(Scenarios()) {
		t.Fatalf("empty pattern: %d scenarios, err %v", len(all), err)
	}
	engines, err := Select("^engine/")
	if err != nil || len(engines) != 4 {
		t.Fatalf("engine pattern matched %d, err %v", len(engines), err)
	}
	if _, err := Select("no-such-scenario"); err == nil {
		t.Error("unmatched pattern accepted")
	}
	if _, err := Select("("); err == nil {
		t.Error("invalid regexp accepted")
	}
}

func TestScenarioNamesUniqueAndDocumented(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Scenarios() {
		if s.Name == "" || s.Doc == "" || s.Rounds <= 0 {
			t.Errorf("scenario %+v incompletely specified", s.Name)
		}
		if seen[s.Name] {
			t.Errorf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
	}
}

// TestMeasureQuickAllScenarios is the in-process equivalent of the CI smoke
// step: every scenario must set up and execute once without error, and the
// quick result must be marked as such so Compare skips it.
func TestMeasureQuickAllScenarios(t *testing.T) {
	for _, s := range Scenarios() {
		got, err := MeasureQuick(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if !got.Quick || got.Name != s.Name || got.RoundsPerOp != s.Rounds || got.Iterations != 1 {
			t.Errorf("%s: quick result malformed: %+v", s.Name, got)
		}
		if got.NsPerRound < 0 || got.AllocsPerRound < 0 || got.BytesPerRound < 0 {
			t.Errorf("%s: negative metrics: %+v", s.Name, got)
		}
		if (s.CheckpointBytes != nil) != (got.CheckpointBytes > 0) {
			t.Errorf("%s: checkpoint_bytes %d does not match whether the scenario pushes checkpoints", s.Name, got.CheckpointBytes)
		}
	}
}

// TestAfterBurstPushWithin2xOfNoBurst asserts that a streaming tenant's
// round cost follows its active colours: 64 rounds after a 20,000-job
// single-colour burst, whose 2,500 Distribute subcolours stay registered,
// Push must cost at most twice what the same tenant pays without the burst.
// A scheduler that scans every subcolour each round is tens of times
// slower here. -short skips the two 1-second measurements.
func TestAfterBurstPushWithin2xOfNoBurst(t *testing.T) {
	if testing.Short() {
		t.Skip("two benchmark measurements; skipped under -short")
	}
	burst, err := Measure(mustScenario(t, "stream/after-burst"))
	if err != nil {
		t.Fatalf("measuring after-burst: %v", err)
	}
	quiet, err := Measure(afterBurstScenario("stream/no-burst", 0))
	if err != nil {
		t.Fatalf("measuring no-burst: %v", err)
	}
	if burst.NsPerRound <= 0 || quiet.NsPerRound <= 0 {
		t.Fatalf("non-positive figures: after-burst=%v no-burst=%v", burst.NsPerRound, quiet.NsPerRound)
	}
	ratio := burst.NsPerRound / quiet.NsPerRound
	t.Logf("after-burst %.1f ns/round, no-burst %.1f ns/round: %.2fx", burst.NsPerRound, quiet.NsPerRound, ratio)
	if ratio > 2 {
		t.Fatalf("Push after a burst costs %.2fx the no-burst round, want <= 2x", ratio)
	}
}
