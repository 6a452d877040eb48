package core

import (
	"slices"
	"testing"

	"rrsched/internal/model"
	"rrsched/internal/sim"
)

// fakeView implements sim.View for tracker unit tests.
type fakeView struct {
	round   int64
	cached  map[model.Color]bool
	pending map[model.Color]int
	slots   int
	delays  map[model.Color]int64
}

func (v *fakeView) Round() int64              { return v.round }
func (v *fakeView) Mini() int                 { return 0 }
func (v *fakeView) Resources() int            { return v.slots * 2 }
func (v *fakeView) Slots() int                { return v.slots }
func (v *fakeView) Delta() int64              { return 0 }
func (v *fakeView) Pending(c model.Color) int { return v.pending[c] }
func (v *fakeView) Cached(c model.Color) bool { return v.cached[c] }
func (v *fakeView) CachedColors() []model.Color {
	var out []model.Color
	for c := range v.cached {
		out = append(out, c)
	}
	return out
}
func (v *fakeView) DelayBound(c model.Color) int64 { return v.delays[c] }
func (v *fakeView) Universe() []model.Color        { return nil }

func trackerEnv(t *testing.T, delta int64) (*Tracker, *fakeView) {
	t.Helper()
	seq := model.NewBuilder(delta).
		Add(0, 0, 4, 1).
		Add(0, 1, 2, 1).
		MustBuild()
	env := sim.Env{Seq: seq, Resources: 4, Replication: 2, Speed: 1}
	tr := NewTracker(env)
	v := &fakeView{
		cached:  map[model.Color]bool{},
		pending: map[model.Color]int{},
		slots:   2,
		delays:  map[model.Color]int64{0: 4, 1: 2},
	}
	return tr, v
}

func jobs(c model.Color, delay int64, round int64, n int) []model.Job {
	out := make([]model.Job, n)
	for i := range out {
		out[i] = model.Job{Color: c, Arrival: round, Delay: delay}
	}
	return out
}

func TestTrackerEligibilityThreshold(t *testing.T) {
	tr, v := trackerEnv(t, 3) // Δ = 3
	// Round 0: 2 jobs of color 0 — below Δ, stays ineligible.
	v.round = 0
	tr.ArrivalPhase(v, jobs(0, 4, 0, 2))
	if tr.Eligible(0) {
		t.Fatal("color eligible below Δ arrivals")
	}
	// Round 4 (next multiple of D=4): 1 more job — counter reaches 3 = Δ.
	v.round = 4
	tr.DropPhase(v, nil)
	tr.ArrivalPhase(v, jobs(0, 4, 4, 1))
	if !tr.Eligible(0) {
		t.Fatal("color not eligible after Δ arrivals")
	}
	// Counter wrapped: cnt = 3 mod 3 = 0.
	if tr.states[0].cnt != 0 {
		t.Errorf("cnt = %d after wrap", tr.states[0].cnt)
	}
}

func TestTrackerCounterWrapModulo(t *testing.T) {
	tr, v := trackerEnv(t, 3)
	v.round = 0
	tr.ArrivalPhase(v, jobs(0, 4, 0, 7)) // 7 = 2*3 + 1 -> wrap, cnt = 1
	if !tr.Eligible(0) {
		t.Fatal("not eligible after large batch")
	}
	if tr.states[0].cnt != 1 {
		t.Errorf("cnt = %d, want 7 mod 3 = 1", tr.states[0].cnt)
	}
}

func TestTrackerIneligibleResetOnlyWhenUncached(t *testing.T) {
	tr, v := trackerEnv(t, 2)
	v.round = 0
	tr.ArrivalPhase(v, jobs(0, 4, 0, 2)) // eligible
	if !tr.Eligible(0) {
		t.Fatal("setup failed")
	}
	// Round 4, color 0 cached: stays eligible.
	v.round = 4
	v.cached[0] = true
	tr.DropPhase(v, nil)
	if !tr.Eligible(0) {
		t.Fatal("cached color became ineligible")
	}
	// Round 8, not cached: becomes ineligible, counter zeroed, epoch ends.
	v.round = 8
	v.cached[0] = false
	tr.states[0].cnt = 1
	tr.DropPhase(v, nil)
	if tr.Eligible(0) {
		t.Fatal("uncached color stayed eligible at its multiple")
	}
	if tr.states[0].cnt != 0 {
		t.Errorf("cnt = %d after ineligibility reset", tr.states[0].cnt)
	}
	if tr.completedEpochs != 1 {
		t.Errorf("completedEpochs = %d", tr.completedEpochs)
	}
}

func TestTrackerResetOnlyAtMultiples(t *testing.T) {
	tr, v := trackerEnv(t, 2)
	v.round = 0
	tr.ArrivalPhase(v, jobs(0, 4, 0, 2))
	// Round 2 is not a multiple of D_0 = 4: no reset even if uncached.
	v.round = 2
	tr.DropPhase(v, nil)
	if !tr.Eligible(0) {
		t.Fatal("reset happened off the color's multiple")
	}
}

func TestTrackerDeadlineAdvancesEveryMultiple(t *testing.T) {
	tr, v := trackerEnv(t, 2)
	v.round = 0
	tr.ArrivalPhase(v, nil)
	if got := tr.Deadline(1); got != 2 {
		t.Errorf("dd(1) = %d, want 2", got)
	}
	v.round = 2
	tr.ArrivalPhase(v, nil) // empty request still advances dd (Section 3.1)
	if got := tr.Deadline(1); got != 4 {
		t.Errorf("dd(1) = %d, want 4", got)
	}
	// Color 0 (D=4) only advances at multiples of 4.
	if got := tr.Deadline(0); got != 4 {
		t.Errorf("dd(0) = %d, want 4", got)
	}
}

func TestTimestampSemantics(t *testing.T) {
	// Timestamp = latest wrap round strictly before the most recent multiple
	// of D (Section 3.1.1).
	cs := &colorState{delay: 4}
	if got := cs.timestamp(10); got != 0 {
		t.Errorf("no wraps: timestamp = %d", got)
	}
	cs.wrap(4, 2)
	// At round 4 the most recent multiple is 4; wrap at 4 does not count.
	if got := cs.timestamp(4); got != 0 {
		t.Errorf("same-round wrap counted: timestamp = %d", got)
	}
	if got := cs.timestamp(7); got != 0 {
		t.Errorf("wrap at 4 counted before round 8: timestamp = %d", got)
	}
	// From round 8 on, the wrap at 4 is visible.
	if got := cs.timestamp(8); got != 4 {
		t.Errorf("timestamp(8) = %d, want 4", got)
	}
	cs.wrap(8, 2)
	// At round 8 the newest visible wrap is still 4 (wrap at 8 excluded).
	if got := cs.timestamp(8); got != 4 {
		t.Errorf("timestamp(8) after wrap(8) = %d, want 4", got)
	}
	if got := cs.timestamp(12); got != 8 {
		t.Errorf("timestamp(12) = %d, want 8", got)
	}
}

func TestTrackerDropClassification(t *testing.T) {
	tr, v := trackerEnv(t, 2)
	// Ineligible drops.
	v.round = 4
	tr.DropPhase(v, map[model.Color]int{0: 3})
	if tr.IneligibleDrops() != 3 || tr.EligibleDrops() != 0 {
		t.Errorf("drops = %d/%d, want 0/3", tr.EligibleDrops(), tr.IneligibleDrops())
	}
	// Make eligible, then drops count as eligible (classified before the
	// same-round ineligibility transition).
	tr.ArrivalPhase(v, jobs(0, 4, 4, 2))
	v.round = 8
	tr.DropPhase(v, map[model.Color]int{0: 2})
	if tr.EligibleDrops() != 2 {
		t.Errorf("eligible drops = %d, want 2", tr.EligibleDrops())
	}
	// And the color became ineligible afterwards (uncached at multiple).
	if tr.Eligible(0) {
		t.Error("color still eligible after uncached multiple")
	}
}

func TestTrackerEpochCounting(t *testing.T) {
	tr, v := trackerEnv(t, 2)
	if tr.NumEpochs() != 0 {
		t.Fatalf("fresh tracker epochs = %d", tr.NumEpochs())
	}
	v.round = 0
	tr.ArrivalPhase(v, jobs(0, 4, 0, 1)) // color 0 seen: epoch 0 starts
	if tr.NumEpochs() != 1 {
		t.Errorf("epochs = %d, want 1 (incomplete epoch 0)", tr.NumEpochs())
	}
	tr.ArrivalPhase(v, jobs(0, 4, 0, 1)) // eligible now (Δ=2)
	v.round = 4
	tr.DropPhase(v, nil) // ineligible: epoch 0 complete, epoch 1 current
	if tr.NumEpochs() != 2 {
		t.Errorf("epochs = %d, want 2", tr.NumEpochs())
	}
}

func TestNewTrackerRejectsNonBatched(t *testing.T) {
	seq := model.NewBuilder(2).Add(1, 0, 4, 1).MustBuild() // arrival at round 1, D=4
	defer func() {
		if recover() == nil {
			t.Fatal("NewTracker accepted a non-batched sequence")
		}
	}()
	NewTracker(sim.Env{Seq: seq, Resources: 4, Replication: 2, Speed: 1})
}

func TestRankEDFOrdering(t *testing.T) {
	tr, v := trackerEnv(t, 1)
	// Make both colors eligible with known deadlines.
	v.round = 0
	tr.ArrivalPhase(v, append(jobs(0, 4, 0, 1), jobs(1, 2, 0, 1)...))
	// dd(0) = 4, dd(1) = 2. Color 1 nonidle, color 0 idle.
	v.pending = map[model.Color]int{0: 0, 1: 5}
	ranked := tr.rankEDF(v, []model.Color{0, 1})
	if ranked[0] != 1 || ranked[1] != 0 {
		t.Errorf("ranked = %v, want nonidle color 1 first", ranked)
	}
	// Both nonidle: earlier deadline first.
	v.pending = map[model.Color]int{0: 1, 1: 1}
	ranked = tr.rankEDF(v, []model.Color{0, 1})
	if ranked[0] != 1 {
		t.Errorf("ranked = %v, want earlier-deadline color 1 first", ranked)
	}
	// Tie on deadline: smaller delay bound first.
	tr.states[0].dd = 2
	ranked = tr.rankEDF(v, []model.Color{0, 1})
	if ranked[0] != 1 {
		t.Errorf("ranked = %v, want smaller-delay color 1 first on deadline tie", ranked)
	}
}

// setEligible flips a color's eligibility bit and keeps the tracker's
// ascending eligible set consistent with it, for tests that stage state
// directly instead of driving the phases.
func setEligible(tr *Tracker, c model.Color, on bool) {
	tr.states[c].eligible = on
	i, found := slices.BinarySearch(tr.eligible, c)
	switch {
	case on && !found:
		tr.eligible = slices.Insert(tr.eligible, i, c)
	case !on && found:
		tr.eligible = slices.Delete(tr.eligible, i, i+1)
	}
}

func TestTopByTimestamp(t *testing.T) {
	tr, _ := trackerEnv(t, 1)
	setEligible(tr, 0, true)
	setEligible(tr, 1, true)
	tr.states[0].wrap(4, 2)
	tr.states[1].wrap(6, 2)
	// At round 8: ts(0) = 4 (multiple of 4 is 8); ts(1) = 6 (multiple of 2 is 8).
	top := tr.topByTimestamp(8, 1)
	if len(top) != 1 || top[0] != 1 {
		t.Errorf("top = %v, want color 1 (newer timestamp)", top)
	}
	// q larger than the eligible count returns everything.
	top = tr.topByTimestamp(8, 5)
	if len(top) != 2 {
		t.Errorf("top = %v, want both colors", top)
	}
	// Ineligible colors never appear.
	setEligible(tr, 1, false)
	top = tr.topByTimestamp(8, 2)
	if len(top) != 1 || top[0] != 0 {
		t.Errorf("top = %v, want only color 0", top)
	}
}

func TestTimestampKSemantics(t *testing.T) {
	cs := &colorState{delay: 4}
	cs.wrap(4, 3)
	cs.wrap(8, 3)
	cs.wrap(12, 3)
	// At round 16 the most recent multiple is 16; wraps 12, 8, 4 all count.
	if got := cs.timestampK(16, 1); got != 12 {
		t.Errorf("K=1: %d, want 12", got)
	}
	if got := cs.timestampK(16, 2); got != 8 {
		t.Errorf("K=2: %d, want 8", got)
	}
	if got := cs.timestampK(16, 3); got != 4 {
		t.Errorf("K=3: %d, want 4", got)
	}
	// Fewer than K visible wraps -> 0.
	if got := cs.timestampK(16, 4); got != 0 {
		t.Errorf("K=4: %d, want 0", got)
	}
	// Wrap at the current multiple is excluded at any depth.
	if got := cs.timestampK(12, 1); got != 8 {
		t.Errorf("K=1 at 12: %d, want 8", got)
	}
}

func TestSetTimestampKValidation(t *testing.T) {
	tr := NewDynamicTracker(2)
	defer func() {
		if recover() == nil {
			t.Fatal("K=0 accepted")
		}
	}()
	tr.SetTimestampK(0)
}
