package perf

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// Measure runs one scenario to statistical convergence via testing.Benchmark
// (the op is repeated until the default 1s benchtime is filled) and returns
// its per-round figures. Setup cost is excluded: the op closure is built
// once, before timing starts.
func Measure(s Scenario) (Result, error) {
	defer s.teardown()
	op, err := s.Setup()
	if err != nil {
		return Result{}, fmt.Errorf("perf: scenario %s setup: %w", s.Name, err)
	}
	ckptBytes := s.checkpointBytes()
	var opErr error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := op(); err != nil {
				opErr = err
				return
			}
		}
	})
	if opErr != nil {
		return Result{}, fmt.Errorf("perf: scenario %s: %w", s.Name, opErr)
	}
	rounds := float64(s.Rounds)
	return Result{
		Name:            s.Name,
		Iterations:      br.N,
		RoundsPerOp:     s.Rounds,
		NsPerRound:      float64(br.NsPerOp()) / rounds,
		AllocsPerRound:  float64(br.AllocsPerOp()) / rounds,
		BytesPerRound:   float64(br.AllocedBytesPerOp()) / rounds,
		CheckpointBytes: ckptBytes,
	}, nil
}

// MeasureQuick runs the scenario op exactly once and derives single-shot
// figures — a smoke measurement for CI: it proves every scenario still runs
// and produces a schema-valid report in a few hundred milliseconds total,
// but the numbers are unaveraged and marked Quick so Compare ignores them.
func MeasureQuick(s Scenario) (Result, error) {
	defer s.teardown()
	op, err := s.Setup()
	if err != nil {
		return Result{}, fmt.Errorf("perf: scenario %s setup: %w", s.Name, err)
	}
	ckptBytes := s.checkpointBytes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	//lint:ignore determinism benchmark harness: wall-clock timing is the measurement itself, never an input to scheduling decisions
	start := time.Now()
	opErr := op()
	//lint:ignore determinism benchmark harness: wall-clock timing is the measurement itself, never an input to scheduling decisions
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if opErr != nil {
		return Result{}, fmt.Errorf("perf: scenario %s: %w", s.Name, opErr)
	}
	rounds := float64(s.Rounds)
	return Result{
		Name:            s.Name,
		Iterations:      1,
		RoundsPerOp:     s.Rounds,
		Quick:           true,
		NsPerRound:      float64(elapsed.Nanoseconds()) / rounds,
		AllocsPerRound:  float64(after.Mallocs-before.Mallocs) / rounds,
		BytesPerRound:   float64(after.TotalAlloc-before.TotalAlloc) / rounds,
		CheckpointBytes: ckptBytes,
	}, nil
}
