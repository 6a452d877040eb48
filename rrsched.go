// Package rrsched is a library for online reconfigurable resource scheduling
// with variable delay bounds, reproducing Plaxton, Sun, Tiwari, and Vin
// (SPAA 2006): unit jobs of different categories ("colors") arrive over time
// and must run, within a per-color delay bound, on a resource configured to
// their color; resources can be reconfigured at a fixed cost Δ; unexecuted
// jobs are dropped at unit cost. The goal is to minimize total cost.
//
// The headline algorithm is the layered stack of the paper:
//
//	VarBatch ∘ Distribute ∘ ΔLRU-EDF
//
// ΔLRU-EDF (the core contribution) caches one set of colors by recency of
// "ΔLRU timestamps" and a second set by earliest deadline; VarBatch and
// Distribute reduce arbitrary inputs to the rate-limited batched inputs the
// core policy is analyzed on. With a constant-factor resource advantage
// (n = 8m) the stack is constant competitive against the optimal offline
// schedule with m resources.
//
// # Quick start
//
//	b := rrsched.NewBuilder(4)              // Δ = 4
//	b.Add(0, 0, 8, 10)                      // round 0: 10 jobs of color 0, delay bound 8
//	b.Add(3, 1, 4, 5)                       // round 3: 5 jobs of color 1, delay bound 4
//	seq := b.MustBuild()
//	res, err := rrsched.Schedule(seq, 8)    // the full stack, 8 resources
//	fmt.Println(res.Cost)
//
// Lower-level entry points expose the individual layers (RunPolicy with
// NewDeltaLRUEDF / NewDeltaLRU / NewEDF on batched inputs), the offline side
// (OfflineLowerBound, OfflineBracket, ExactOPT), and workload generators
// (subpackage internal/workload is surfaced through the cmd/ tools).
package rrsched

import (
	"rrsched/internal/core"
	"rrsched/internal/model"
	"rrsched/internal/offline"
	"rrsched/internal/reduce"
	"rrsched/internal/sim"
	"rrsched/internal/stream"
)

// Re-exported model types. Color identifies a job category; Black is the
// initial color of every resource.
type (
	// Color identifies a job category.
	Color = model.Color
	// Job is a unit job with a color, arrival round, and delay bound.
	Job = model.Job
	// Sequence is an input instance (requests, delay bounds, and Δ).
	Sequence = model.Sequence
	// Builder incrementally constructs a Sequence.
	Builder = model.Builder
	// Cost aggregates reconfiguration and drop cost.
	Cost = model.Cost
	// ScheduleRecord is the full record of reconfigurations and executions.
	ScheduleRecord = model.Schedule
	// Policy is an online reconfiguration policy runnable with RunPolicy.
	Policy = sim.Policy
	// Env configures a RunPolicy simulation.
	Env = sim.Env
)

// Black is the initial color of every resource; jobs are never black.
const Black = model.Black

// NewBuilder returns a sequence builder with reconfiguration cost delta.
func NewBuilder(delta int64) *Builder { return model.NewBuilder(delta) }

// Result is the outcome of scheduling a sequence.
type Result struct {
	// Algorithm names the stack or policy that produced the schedule.
	Algorithm string
	// Cost is the audited total cost of the schedule.
	Cost Cost
	// Schedule is the complete, auditable decision record.
	Schedule *ScheduleRecord
}

// Schedule runs the paper's full online stack (VarBatch ∘ Distribute ∘
// ΔLRU-EDF) on an arbitrary instance with n resources and returns the
// audited schedule. n must be a positive multiple of 4 (two-way replication
// with a two-way LRU/EDF slot split); the paper's guarantee regime is
// n = 8m against an m-resource offline optimum.
func Schedule(seq *Sequence, n int) (*Result, error) {
	res, err := reduce.RunVarBatch(seq, n, core.NewDeltaLRUEDF())
	if err != nil {
		return nil, err
	}
	return &Result{Algorithm: res.Policy, Cost: res.Cost, Schedule: res.Schedule}, nil
}

// ScheduleBatched runs Distribute ∘ ΔLRU-EDF on a batched instance
// (jobs of color ℓ arriving only at multiples of D_ℓ).
func ScheduleBatched(seq *Sequence, n int) (*Result, error) {
	res, err := reduce.RunDistribute(seq, n, core.NewDeltaLRUEDF())
	if err != nil {
		return nil, err
	}
	return &Result{Algorithm: res.Policy, Cost: res.Cost, Schedule: res.Schedule}, nil
}

// NewDeltaLRUEDF returns the paper's core ΔLRU-EDF policy for rate-limited
// batched inputs (Section 3.1.3).
func NewDeltaLRUEDF() Policy { return core.NewDeltaLRUEDF() }

// NewDeltaLRU returns the pure recency policy (Section 3.1.1; not resource
// competitive, provided for comparison).
func NewDeltaLRU() Policy { return core.NewDeltaLRU() }

// NewEDF returns the pure deadline policy (Section 3.1.2; not resource
// competitive, provided for comparison).
func NewEDF() Policy { return core.NewEDF() }

// RunPolicy simulates a policy on a batched instance with n resources and
// the paper's two-way replication, returning the audited result.
func RunPolicy(seq *Sequence, n int, p Policy) (*Result, error) {
	res, err := sim.Run(sim.Env{Seq: seq, Resources: n, Replication: 2, Speed: 1}, p)
	if err != nil {
		return nil, err
	}
	cost, err := model.Audit(seq, res.Schedule)
	if err != nil {
		return nil, err
	}
	return &Result{Algorithm: res.Policy, Cost: cost, Schedule: res.Schedule}, nil
}

// Audit independently replays a schedule against its input and returns its
// cost, or an error describing the first legality violation.
func Audit(seq *Sequence, sched *ScheduleRecord) (Cost, error) {
	return model.Audit(seq, sched)
}

// OfflineLowerBound returns a certified lower bound on the cost of every
// schedule for seq with m resources (Par-EDF drop bound + per-color bound).
func OfflineLowerBound(seq *Sequence, m int) int64 {
	return offline.LowerBound(seq, m)
}

// OfflineBracket bounds OPT(seq, m) from both sides: a certified lower bound
// and the audited cost of the best offline heuristic schedule.
func OfflineBracket(seq *Sequence, m int) (lb, ub int64) {
	br := offline.BracketOPT(seq, m)
	return br.LB, br.UB
}

// ExactOPT computes the exact optimal offline cost for small instances by
// dynamic programming; it returns offline.ErrTooLarge when the instance
// exceeds the state budget.
func ExactOPT(seq *Sequence, m int) (int64, error) {
	return offline.Exact(seq, m, offline.ExactOptions{})
}

// Streaming interface: the truly online form of the full stack. Callers
// push requests round by round and receive the round's reconfiguration and
// execution decisions immediately; the stream scheduler's decisions match
// the batch pipeline (Schedule) decision for decision.
type (
	// Stream is an incremental online scheduler (VarBatch ∘ Distribute ∘
	// ΔLRU-EDF); see NewStream.
	Stream = stream.Scheduler
	// StreamDecision is one round's output of a Stream.
	StreamDecision = stream.Decision
)

// NewStream returns an incremental online scheduler with the given
// reconfiguration cost and number of resources (a positive multiple of 4).
func NewStream(delta int64, resources int) (*Stream, error) {
	return stream.New(stream.Config{Delta: delta, Resources: resources})
}

// RestoreStream rebuilds a Stream from a checkpoint taken with its Snapshot
// (indented) or AppendSnapshot (compact) method. The resumed scheduler's
// decisions are identical to those the original would have produced had it
// never been interrupted:
//
//	snap, _ := s.Snapshot()        // persist before shutdown
//	s2, _ := rrsched.RestoreStream(snap)
//	dec, _ := s2.Push(r, jobs)     // continues where s left off
func RestoreStream(snapshot []byte) (*Stream, error) {
	return stream.Restore(snapshot)
}
