package stream

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"rrsched/internal/model"
)

// stepTo is Push without the settled fast-forward: it steps every round from
// s.round through r, the reference the skip rule must reproduce.
func stepTo(t testing.TB, s *Scheduler, r int64, jobs []model.Job) Decision {
	t.Helper()
	for s.round < r {
		if _, err := s.step(s.round, nil); err != nil {
			t.Fatal(err)
		}
		s.round++
	}
	dec, err := s.step(r, jobs)
	if err != nil {
		t.Fatal(err)
	}
	s.round = r + 1
	return dec
}

// script reads a byte string as a stream of small choices; past its end
// every choice is 0.
type script struct{ data []byte }

func (sc *script) next(n int) int {
	if len(sc.data) == 0 {
		return 0
	}
	b := sc.data[0]
	sc.data = sc.data[1:]
	return int(b) % n
}

// checkSkipAgainstStepping runs the scheduler Push drives (which skips settled
// rounds) and a reference that steps every round side by side over the first
// maxOps operations data describes: Δ 1–6, n 4–12, up to four colors with
// delay bounds up to 40, sparse arrivals, gaps of up to 510 rounds and
// Restore of both schedulers in between. Every pushed round's decision and
// compact snapshot must be byte-identical. It returns how many pushes found
// the scheduler settled over a gap of at least one round.
func checkSkipAgainstStepping(t testing.TB, data []byte, maxOps int) int {
	t.Helper()
	sc := &script{data: data}
	cfg := Config{Delta: int64(1 + sc.next(6)), Resources: 4 * (1 + sc.next(3))}
	delays := make([]int64, 1+sc.next(4))
	for c := range delays {
		delays[c] = int64(1 + sc.next(40))
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	id := int64(0)
	for op := 0; op < maxOps && len(sc.data) > 0; op++ {
		var gap int64
		var jobs []model.Job
		switch k := sc.next(8); {
		case k < 4:
			gap = int64(k)
		case k == 4:
			gap = int64(2 * sc.next(256))
		case k < 7:
			gap = int64(sc.next(4))
			for i := 1 + sc.next(4); i > 0; i-- {
				c := sc.next(len(delays))
				jobs = append(jobs, model.Job{ID: id, Color: model.Color(c), Arrival: a.round + gap, Delay: delays[c]})
				id++
			}
		default:
			a, ref = restoreBoth(t, a, ref)
			continue
		}
		r := a.round + gap
		if gap > 0 && a.settled() {
			skipped++
		}
		got, err := a.Push(r, jobs)
		if err != nil {
			t.Fatalf("op %d: push round %d: %v", op, r, err)
		}
		want := stepTo(t, ref, r, jobs)
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(want)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("op %d round %d: decision %s, stepping gives %s", op, r, gotJSON, wantJSON)
		}
		if sa, sr := snapshot(t, a), snapshot(t, ref); !bytes.Equal(sa, sr) {
			t.Fatalf("op %d round %d: snapshots differ\nskip: %s\nstep: %s", op, r, sa, sr)
		}
		// A skip must not strand deadline-index buckets behind the clock,
		// where no drop phase would ever visit and release them.
		stale := 0
		for k := range a.inner.due {
			if k < a.round {
				stale++
			}
		}
		if stale > 0 {
			t.Fatalf("op %d round %d: %d deadline-index buckets left before round %d", op, r, stale, a.round)
		}
	}
	return skipped
}

func snapshot(t testing.TB, s *Scheduler) []byte {
	t.Helper()
	b, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// restoreBoth restores each scheduler from its binary state image, the form
// the serve tier pages tenants through.
func restoreBoth(t testing.TB, a, ref *Scheduler) (*Scheduler, *Scheduler) {
	t.Helper()
	restore := func(s *Scheduler) *Scheduler {
		state, err := s.AppendState(nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := RestoreState(state)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	return restore(a), restore(ref)
}

// TestSettledSkipMatchesStepping is the differential check of the settled
// rule over 400 seeded scripts.
func TestSettledSkipMatchesStepping(t *testing.T) {
	skipped := 0
	for seed := int64(1); seed <= 400; seed++ {
		data := make([]byte, 400)
		rand.New(rand.NewSource(seed)).Read(data)
		skipped += checkSkipAgainstStepping(t, data, 200)
	}
	// The scripts must reach the settled state often, or the check above
	// compares stepping with itself.
	if skipped < 2000 {
		t.Fatalf("only %d pushes skipped a settled gap", skipped)
	}
	t.Logf("%d pushes skipped a settled gap", skipped)
}

// FuzzSettledSkip runs the same comparison on fuzzed scripts, cut to 24
// operations: the fuzzer minimizes every input that finds new coverage, and
// long scripts would spend a short fuzzing run minimizing.
func FuzzSettledSkip(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 48)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSkipAgainstStepping(t, data, 24)
	})
}

// TestSettledPushFarAhead pushes a settled scheduler to round 2^40, a gap no
// stepping scheduler could walk, and checks the rounds after it against a
// stepped scheduler that caught up over a short gap instead. Delay bounds are
// powers of two no larger than both landing rounds' alignment, so the two
// runs differ only by a constant round offset.
func TestSettledPushFarAhead(t *testing.T) {
	const far, near = int64(1) << 40, int64(1) << 12
	cfg := Config{Delta: 3, Resources: 8}
	delays := []int64{2, 8, 32}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := int64(0)
	jobsAt := func(r, rel int64) []model.Job {
		var jobs []model.Job
		if rel%5 == 0 {
			for c, d := range delays {
				jobs = append(jobs, model.Job{ID: id, Color: model.Color(c), Arrival: r, Delay: d})
				id++
			}
		}
		return jobs
	}
	for r := int64(0); r < 200; r++ {
		jobs := jobsAt(r, r)
		if _, err := a.Push(r, jobs); err != nil {
			t.Fatal(err)
		}
		stepTo(t, ref, r, jobs)
	}
	// Idle until settled.
	for r := int64(200); !a.settled(); r++ {
		if _, err := a.Push(r, nil); err != nil {
			t.Fatal(err)
		}
		stepTo(t, ref, r, nil)
	}
	dec, err := a.Push(far, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Round != far || dec.Reconfigs != nil || dec.Executions != nil || dec.Dropped != nil {
		t.Fatalf("far push decided %+v", dec)
	}
	stepTo(t, ref, near, nil)
	if a.Round() != far+1 || ref.Round() != near+1 {
		t.Fatalf("rounds %d, %d after the gap", a.Round(), ref.Round())
	}
	for rel := int64(1); rel <= 300; rel++ {
		idBefore := id
		got, err := a.Push(far+rel, jobsAt(far+rel, rel))
		if err != nil {
			t.Fatal(err)
		}
		id = idBefore
		want := stepTo(t, ref, near+rel, jobsAt(near+rel, rel))
		shift(&want, far-near)
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(want)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("round +%d: decision %s, shifted stepping gives %s", rel, gotJSON, wantJSON)
		}
	}
	if a.Cost() != ref.Cost() || a.Executed() != ref.Executed() || a.Dropped() != ref.Dropped() {
		t.Fatalf("far run cost %v (%d executed, %d dropped), near run %v (%d, %d)",
			a.Cost(), a.Executed(), a.Dropped(), ref.Cost(), ref.Executed(), ref.Dropped())
	}
}

// TestSettledRuleChecksProjection restores a settled scheduler whose outer
// colors were doctored away from the projection of the inner ones. Restore
// accepts the image, and stepping repaints the resources, so the scheduler
// must not count as settled.
func TestSettledRuleChecksProjection(t *testing.T) {
	s, err := New(Config{Delta: 2, Resources: 4})
	if err != nil {
		t.Fatal(err)
	}
	for r := int64(0); r < 40; r++ {
		if _, err := s.Push(r, []model.Job{{ID: r, Color: 0, Arrival: r, Delay: 2}}); err != nil {
			t.Fatal(err)
		}
	}
	for r := int64(40); !s.settled(); r++ {
		if _, err := s.Push(r, nil); err != nil {
			t.Fatal(err)
		}
	}
	var cp checkpoint
	if err := json.Unmarshal(snapshot(t, s), &cp); err != nil {
		t.Fatal(err)
	}
	for i := range cp.LocColor {
		cp.LocColor[i] = model.Black
	}
	doctored, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Restore(doctored)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Restore(doctored)
	if err != nil {
		t.Fatal(err)
	}
	if a.settled() {
		t.Fatal("doctored outer colors count as settled")
	}
	r := a.Round() + 10
	got, err := a.Push(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := stepTo(t, ref, r, nil)
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("decision %s, stepping gives %s", gotJSON, wantJSON)
	}
	if !bytes.Equal(snapshot(t, a), snapshot(t, ref)) {
		t.Fatal("snapshots differ after the doctored restore")
	}
}

// shift moves a decision's rounds by off.
func shift(d *Decision, off int64) {
	d.Round += off
	for i := range d.Reconfigs {
		d.Reconfigs[i].Round += off
	}
	for i := range d.Executions {
		d.Executions[i].Round += off
	}
}
