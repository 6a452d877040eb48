// Package perf is the repository's benchmark harness: a fixed matrix of
// named scenarios (engine round loop, policy decisions at several scales,
// queue operations, stream snapshot/restore, sweep fan-out), each measured
// with testing.Benchmark and normalized to per-round figures (ns/round,
// allocs/round, B/round). Results are written as a schema-versioned JSON
// report (BENCH_sim.json) so the performance trajectory of the simulator is
// tracked in-repo, and two reports can be diffed with a configurable
// regression threshold — the cmd/rrbench driver exits non-zero on a
// regression, which is the perf analogue of a failing test.
package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
)

// Schema identifies the report format. Readers reject other schemas, so the
// format can evolve by bumping the version suffix.
const Schema = "rrsched-bench/v1"

// Machine records the environment a report was measured on. Reports from
// different machines are comparable only qualitatively; the diff gate is
// meant for same-machine before/after runs.
type Machine struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// CurrentMachine captures the running environment.
func CurrentMachine() Machine {
	return Machine{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// Result is one scenario's measurement, normalized per round (the scenario
// declares how many simulated rounds — or unit operations — one benchmark op
// performs).
type Result struct {
	Name        string `json:"name"`
	Iterations  int    `json:"iterations"`
	RoundsPerOp int64  `json:"rounds_per_op"`
	// Quick marks a single-shot smoke measurement (rrbench -quick): the
	// numbers are real but unaveraged, so they gate nothing.
	Quick          bool    `json:"quick,omitempty"`
	NsPerRound     float64 `json:"ns_per_round"`
	AllocsPerRound float64 `json:"allocs_per_round"`
	BytesPerRound  float64 `json:"bytes_per_round"`
	// CheckpointBytes is the size of the last checkpoint payload the
	// scenario's setup pushed, for scenarios that push one
	// (Scenario.CheckpointBytes).
	CheckpointBytes int64 `json:"checkpoint_bytes,omitempty"`
}

// Report is the full benchmark report: schema version, machine, and one
// result per scenario run.
type Report struct {
	Schema  string   `json:"schema"`
	Machine Machine  `json:"machine"`
	Results []Result `json:"results"`
}

// NewReport returns an empty report for the current machine.
func NewReport() *Report {
	return &Report{Schema: Schema, Machine: CurrentMachine()}
}

// Sort orders the results by scenario name, so reports are byte-stable for
// a given set of measurements.
func (r *Report) Sort() {
	sort.Slice(r.Results, func(i, j int) bool { return r.Results[i].Name < r.Results[j].Name })
}

// Lookup returns the result with the given scenario name.
func (r *Report) Lookup(name string) (Result, bool) {
	for _, res := range r.Results {
		if res.Name == name {
			return res, true
		}
	}
	return Result{}, false
}

// Write encodes the report as indented JSON.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport decodes and validates a report: the schema string must match
// exactly and every result must carry a name and a positive rounds-per-op,
// so a truncated or foreign file fails loudly instead of producing a
// meaningless diff.
func ReadReport(rd io.Reader) (*Report, error) {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("perf: decoding report: %w", err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("perf: unsupported report schema %q (want %q)", r.Schema, Schema)
	}
	for i, res := range r.Results {
		if res.Name == "" {
			return nil, fmt.Errorf("perf: result %d has no scenario name", i)
		}
		if res.RoundsPerOp <= 0 {
			return nil, fmt.Errorf("perf: result %q has non-positive rounds_per_op %d", res.Name, res.RoundsPerOp)
		}
	}
	return &r, nil
}

// Regression is one metric of one scenario that got worse than the baseline
// by more than the threshold.
type Regression struct {
	Scenario string
	Metric   string // "ns/round", "allocs/round", "B/round", or "checkpoint B"
	Old, New float64
	// Change is the relative increase (new-old)/old; +Inf when old == 0.
	Change float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s %.2f -> %.2f (%+.1f%%)", r.Scenario, r.Metric, r.Old, r.New, r.Change*100)
}

// Compare diffs current against baseline and returns every metric that
// regressed by more than threshold (e.g. 0.25 = 25%). Scenarios present in
// only one report are skipped: the gate compares like with like. Quick
// (single-shot) results on either side are skipped too — they are smoke
// measurements, too noisy to gate on.
func Compare(baseline, current *Report, threshold float64) []Regression {
	var regs []Regression
	for _, cur := range current.Results {
		old, ok := baseline.Lookup(cur.Name)
		if !ok || old.Quick || cur.Quick {
			continue
		}
		metrics := []struct {
			name     string
			old, new float64
		}{
			{"ns/round", old.NsPerRound, cur.NsPerRound},
			{"allocs/round", old.AllocsPerRound, cur.AllocsPerRound},
			{"B/round", old.BytesPerRound, cur.BytesPerRound},
			{"checkpoint B", float64(old.CheckpointBytes), float64(cur.CheckpointBytes)},
		}
		for _, m := range metrics {
			if reg, change := regressed(m.old, m.new, threshold); reg {
				regs = append(regs, Regression{
					Scenario: cur.Name, Metric: m.name,
					Old: m.old, New: m.new, Change: change,
				})
			}
		}
	}
	return regs
}

// regressed reports whether new exceeds old by more than the relative
// threshold. A baseline of zero (e.g. a zero-allocation scenario) regresses
// on any measurable increase beyond rounding noise.
func regressed(old, new, threshold float64) (bool, float64) {
	const eps = 1e-9
	if old <= eps {
		if new <= eps {
			return false, 0
		}
		return true, math.Inf(1)
	}
	change := (new - old) / old
	return change > threshold, change
}
