package stream

import (
	"slices"

	"rrsched/internal/core"
	"rrsched/internal/model"
	"rrsched/internal/queue"
	"rrsched/internal/reduce"
)

// innerState simulates the reduced instance (VarBatch-delayed, Distribute-
// split) round by round: it owns the inner pending queues, the inner
// location assignment (two locations per cached inner color), and the
// ΔLRU-EDF tracker. The outer scheduler projects the inner location colors
// back to outer colors each round.
type innerState struct {
	delta int64
	n     int

	tracker *core.Tracker

	// Subcolor mapping, built lazily as batches arrive. Inner colors are
	// dense: inner color i is toOuter's index i.
	toOuter []model.Color
	inner   map[subKey]model.Color

	pending   []queue.Ring[int64] // deadlines, by inner color
	queued    int                 // pending inner jobs over all colors
	locColor  []model.Color
	colorLocs map[model.Color][]int
	cached    []model.Color // colorLocs' keys in ascending order
	freeLocs  []int

	// Deadline index for the drop phase: due[k] lists the inner colors that
	// were given a job with deadline k, so the drop phase of round k visits
	// those colors instead of every subcolor ever created. lastDue[c] is
	// the highest deadline indexed for c; a color's deadlines are
	// nondecreasing (arrival round plus a fixed delay), so one entry per
	// distinct (color, deadline) suffices. duePool recycles bucket slices.
	due     map[int64][]model.Color
	lastDue []int64
	duePool [][]model.Color

	// Per-round scratch, reused across rounds.
	dropped  map[model.Color]int
	rank     map[model.Color]int64
	want     map[model.Color]bool
	arrivals []model.Job

	iv  innerView // the sim.View handed to the tracker
	now int64
}

type subKey struct {
	outer model.Color
	j     int64
}

func newInnerState(cfg Config) *innerState {
	st := &innerState{
		delta:     cfg.Delta,
		n:         cfg.Resources,
		tracker:   core.NewDynamicTracker(cfg.Delta),
		inner:     map[subKey]model.Color{},
		colorLocs: map[model.Color][]int{},
		due:       map[int64][]model.Color{},
		dropped:   map[model.Color]int{},
		rank:      map[model.Color]int64{},
		want:      map[model.Color]bool{},
	}
	st.iv.st = st
	st.locColor = make([]model.Color, cfg.Resources)
	st.freeLocs = make([]int, cfg.Resources)
	for i := range st.locColor {
		st.locColor[i] = model.Black
		st.freeLocs[i] = cfg.Resources - 1 - i
	}
	return st
}

// outerOf maps an inner color back to its outer color.
func (st *innerState) outerOf(ic model.Color) model.Color {
	return st.toOuter[ic]
}

// subcolor returns (creating if needed) the inner color of (outer, bucket),
// registering it with the tracker under the halved delay bound h.
func (st *innerState) subcolor(outer model.Color, j, h int64) model.Color {
	k := subKey{outer: outer, j: j}
	if ic, ok := st.inner[k]; ok {
		return ic
	}
	ic := model.Color(len(st.toOuter))
	st.inner[k] = ic
	st.toOuter = append(st.toOuter, outer)
	st.pending = append(st.pending, queue.Ring[int64]{})
	st.lastDue = append(st.lastDue, -1)
	st.tracker.Register(ic, h)
	return ic
}

// enqueue adds an inner job of color ic with deadline d, indexing the
// deadline for the drop phase. Keys below floor (a restored deadline that
// already passed) are indexed at floor, the first round still to run, where
// the full scan would have dropped them.
func (st *innerState) enqueue(ic model.Color, d, floor int64) {
	st.pending[ic].Push(d)
	st.queued++
	key := max(d, floor)
	if key <= st.lastDue[ic] {
		return
	}
	st.lastDue[ic] = key
	bucket, ok := st.due[key]
	if !ok && len(st.duePool) > 0 {
		bucket = st.duePool[len(st.duePool)-1]
		st.duePool = st.duePool[:len(st.duePool)-1]
	}
	st.due[key] = append(bucket, ic)
}

// dropDue pops every pending inner job whose deadline has come by round r
// from the colors indexed at r, returning the per-color counts (scratch,
// valid until the next round).
func (st *innerState) dropDue(r int64) map[model.Color]int {
	// Clearing a map costs its capacity: after a round that dropped many
	// colors (a burst), start afresh rather than clear the grown map in
	// every later round.
	if len(st.dropped) > 64 {
		st.dropped = map[model.Color]int{}
	} else {
		clear(st.dropped)
	}
	bucket, ok := st.due[r]
	if !ok {
		return st.dropped
	}
	for _, ic := range bucket {
		q := &st.pending[ic]
		for q.Len() > 0 && q.Peek() <= r {
			q.Pop()
			st.queued--
			st.dropped[ic]++
		}
	}
	delete(st.due, r)
	st.duePool = append(st.duePool, bucket[:0])
	return st.dropped
}

// round advances the inner simulation one round: drop, arrival (the released
// outer jobs, split into rate-limited subcolors), reconfiguration (ΔLRU-EDF
// target + placement), and execution. It returns nothing; the caller reads
// locColor for the projection.
func (st *innerState) round(r int64, released []model.Job) []model.Color {
	st.now = r

	// Drop phase, guided by the deadline index.
	st.tracker.DropPhase(st.view(), st.dropDue(r))

	// Arrival phase: split the release batch into subcolors with at most h
	// jobs each (h is the inner delay bound of the outer color). Jobs are
	// processed in release order and subcolor ids are created on first
	// appearance — exactly the order reduce.DistributeSequence uses, so the
	// streaming inner instance is identical to the batch pipeline's,
	// including the "consistent order of colors" tie-breaks.
	arrivals := st.arrivals[:0]
	rank := st.rank
	clear(rank)
	for _, j := range released {
		h := reduce.BatchedDelay(j.Delay)
		ic := st.subcolor(j.Color, rank[j.Color]/h, h)
		rank[j.Color]++
		st.enqueue(ic, r+h, r)
		arrivals = append(arrivals, model.Job{Color: ic, Arrival: r, Delay: h})
	}
	st.arrivals = arrivals
	st.tracker.ArrivalPhase(st.view(), arrivals)

	// Reconfiguration phase: ΔLRU-EDF target, then minimal placement.
	target := core.ComputeTarget(st.tracker, st.view(), st.n/4)
	st.place(target)

	// Execution phase: each inner location executes one pending job of its
	// color.
	for loc := 0; loc < st.n; loc++ {
		c := st.locColor[loc]
		if c == model.Black {
			continue
		}
		if q := &st.pending[c]; q.Len() > 0 {
			q.Pop()
			st.queued--
		}
	}
	return target
}

// skip fast-forwards the inner simulation over rounds from..last, which the
// caller has found settled (Scheduler.settled): nothing is pending, so each
// round would only move the clocks and retire stale deadline-index buckets.
// With nothing pending the index is empty in content, so it is reset to what
// Restore builds for an empty pending set rather than walked.
func (st *innerState) skip(from, last int64) {
	st.tracker.Skip(from, last)
	st.now = last
	if len(st.due) > 0 {
		clear(st.due)
		for i := range st.lastDue {
			st.lastDue[i] = -1
		}
	}
}

// place realizes the target inner color set with two locations per color,
// mirroring the batch engine's placement (evict in color order, reuse
// still-colored free locations).
func (st *innerState) place(target []model.Color) {
	want := st.want
	clear(want)
	for _, c := range target {
		want[c] = true
	}
	kept := st.cached[:0]
	for _, c := range st.cached {
		if want[c] {
			kept = append(kept, c)
			continue
		}
		st.freeLocs = append(st.freeLocs, st.colorLocs[c]...)
		delete(st.colorLocs, c)
	}
	st.cached = kept
	for _, c := range target {
		if _, ok := st.colorLocs[c]; ok {
			continue
		}
		locs := make([]int, 0, 2)
		for i := 0; i < 2; i++ {
			loc := st.takeFree(c)
			st.locColor[loc] = c
			locs = append(locs, loc)
		}
		st.colorLocs[c] = locs
		i, _ := slices.BinarySearch(st.cached, c)
		st.cached = slices.Insert(st.cached, i, c)
	}
}

func (st *innerState) takeFree(c model.Color) int {
	n := len(st.freeLocs)
	for i := n - 1; i >= 0; i-- {
		if st.locColor[st.freeLocs[i]] == c {
			loc := st.freeLocs[i]
			st.freeLocs[i] = st.freeLocs[n-1]
			st.freeLocs = st.freeLocs[:n-1]
			return loc
		}
	}
	loc := st.freeLocs[n-1]
	st.freeLocs = st.freeLocs[:n-1]
	return loc
}

// view adapts innerState to sim.View for the tracker and target computation.
func (st *innerState) view() *innerView { return &st.iv }

type innerView struct{ st *innerState }

func (v *innerView) Round() int64   { return v.st.now }
func (v *innerView) Mini() int      { return 0 }
func (v *innerView) Resources() int { return v.st.n }
func (v *innerView) Slots() int     { return v.st.n / 2 }
func (v *innerView) Delta() int64   { return v.st.delta }
func (v *innerView) Pending(c model.Color) int {
	if c < 0 || int(c) >= len(v.st.pending) {
		return 0
	}
	return v.st.pending[c].Len()
}
func (v *innerView) Cached(c model.Color) bool {
	_, ok := v.st.colorLocs[c]
	return ok
}

// CachedColors returns the ascending cached list itself: callers read it
// before the next place, which rewrites it.
func (v *innerView) CachedColors() []model.Color { return v.st.cached }
func (v *innerView) DelayBound(c model.Color) int64 {
	if int(c) < len(v.st.toOuter) {
		// The tracker owns the registered delay; reconstruct from the
		// subcolor's outer color is unnecessary — consult the tracker.
		return v.st.tracker.DelayBoundOf(c)
	}
	return 0
}
func (v *innerView) Universe() []model.Color {
	out := make([]model.Color, len(v.st.toOuter))
	for i := range out {
		out[i] = model.Color(i)
	}
	return out
}
