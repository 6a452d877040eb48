package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"rrsched/internal/model"
	"rrsched/internal/obs"
)

// refTracker is the full-scan Section 3.1 state machine the incremental
// Tracker replaced: every phase walks every registered color and ℓ.dd is
// stored eagerly. Its loop bodies are the earlier Tracker's, copied, so it is
// the oracle for the eligible set, deadlines, events and counters.
type refTracker struct {
	delta  int64
	tsK    int
	states map[model.Color]*colorState
	order  []model.Color
	sink   obs.EventSink

	completedEpochs int64
	eligibleDrops   int64
	ineligibleDrops int64
}

func newRefTracker(delta int64, sink obs.EventSink) *refTracker {
	return &refTracker{delta: delta, tsK: 1, states: map[model.Color]*colorState{}, sink: sink}
}

func (t *refTracker) Register(c model.Color, delay int64) {
	if _, ok := t.states[c]; ok {
		return
	}
	t.states[c] = &colorState{delay: delay}
	i, _ := slices.BinarySearch(t.order, c)
	t.order = slices.Insert(t.order, i, c)
}

func (t *refTracker) DropPhase(v *fakeView, dropped map[model.Color]int) {
	for c, n := range dropped {
		cs := t.states[c]
		if cs == nil {
			continue
		}
		if cs.eligible {
			t.eligibleDrops += int64(n)
		} else {
			t.ineligibleDrops += int64(n)
		}
	}
	k := v.Round()
	for _, c := range t.order {
		cs := t.states[c]
		if k%cs.delay != 0 {
			continue
		}
		if cs.eligible && !v.Cached(c) {
			cs.eligible = false
			cs.cnt = 0
			t.completedEpochs++
			if t.sink != nil {
				t.sink.Emit(obs.Event{Kind: obs.EventEpochEnd, Round: k, Color: c, Resource: -1, N: t.completedEpochs})
			}
		}
	}
}

func (t *refTracker) ArrivalPhase(v *fakeView, arrivals []model.Job) {
	counts := map[model.Color]int64{}
	for _, j := range arrivals {
		counts[j.Color]++
	}
	k := v.Round()
	for _, c := range t.order {
		cs := t.states[c]
		if k%cs.delay != 0 {
			continue
		}
		cs.dd = k + cs.delay
		if n := counts[c]; n > 0 {
			if !cs.seen {
				cs.seen = true
			}
			cs.cnt += n
		}
		if cs.cnt >= t.delta {
			cs.cnt %= t.delta
			cs.wrap(k, t.tsK+1)
			cs.eligible = true
			if t.sink != nil {
				t.sink.Emit(obs.Event{Kind: obs.EventEligible, Round: k, Color: c, Resource: -1, N: t.delta})
			}
		}
	}
}

func (t *refTracker) eligibleColors() []model.Color {
	var out []model.Color
	for _, c := range t.order {
		if t.states[c].eligible {
			out = append(out, c)
		}
	}
	return out
}

func (t *refTracker) NumEpochs() int64 {
	n := t.completedEpochs
	for _, cs := range t.states {
		if cs.seen {
			n++
		}
	}
	return n
}

func (t *refTracker) Checkpoint() *TrackerCheckpoint {
	cp := &TrackerCheckpoint{
		Delta:           t.delta,
		TimestampK:      t.tsK,
		CompletedEpochs: t.completedEpochs,
		EligibleDrops:   t.eligibleDrops,
		IneligibleDrops: t.ineligibleDrops,
	}
	for c, cs := range t.states {
		cc := ColorCheckpoint{Color: c, Delay: cs.delay, Cnt: cs.cnt, Deadline: cs.dd, Eligible: cs.eligible, Seen: cs.seen}
		if len(cs.wraps) > 0 {
			cc.Wraps = append([]int64(nil), cs.wraps...)
		}
		cp.Colors = append(cp.Colors, cc)
	}
	sort.Slice(cp.Colors, func(i, j int) bool { return cp.Colors[i].Color < cp.Colors[j].Color })
	return cp
}

// compareTrackers fails the test at the first disagreement between the
// incremental tracker and the reference after a phase.
func compareTrackers(t *testing.T, where string, got *Tracker, want *refTracker, gotSink, wantSink *obs.CollectorSink) {
	t.Helper()
	wantElig := want.eligibleColors()
	if !slices.Equal(got.eligibleColors(), wantElig) {
		t.Fatalf("%s: eligible set %v, reference %v", where, got.eligibleColors(), wantElig)
	}
	for _, c := range want.order {
		if got.Eligible(c) != want.states[c].eligible {
			t.Fatalf("%s: Eligible(%v) = %v, reference %v", where, c, got.Eligible(c), want.states[c].eligible)
		}
		if d := got.Deadline(c); d != want.states[c].dd {
			t.Fatalf("%s: Deadline(%v) = %d, reference %d", where, c, d, want.states[c].dd)
		}
	}
	if ge, we := gotSink.Events(), wantSink.Events(); !reflect.DeepEqual(ge, we) {
		t.Fatalf("%s: %d events, reference %d:\n got %v\nwant %v", where, len(ge), len(we), ge, we)
	}
	if got.completedEpochs != want.completedEpochs || got.NumEpochs() != want.NumEpochs() ||
		got.EligibleDrops() != want.eligibleDrops || got.IneligibleDrops() != want.ineligibleDrops {
		t.Fatalf("%s: epochs %d/%d drops %d/%d, reference epochs %d/%d drops %d/%d", where,
			got.completedEpochs, got.NumEpochs(), got.EligibleDrops(), got.IneligibleDrops(),
			want.completedEpochs, want.NumEpochs(), want.eligibleDrops, want.ineligibleDrops)
	}
	gcp, err := got.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if wcp := want.Checkpoint(); !reflect.DeepEqual(gcp, wcp) {
		t.Fatalf("%s: checkpoint differs from the reference's", where)
	}
}

// TestTrackerMatchesFullScanReference drives the incremental tracker and the
// full-scan reference through the same randomized phases — batched
// arrivals, colors that never arrive, colors registered between rounds off a
// multiple of their delay, a random cached subset, random drops, a skipped
// stretch of rounds, and a Checkpoint/RestoreTracker round-trip mid-run —
// and compares them after every phase.
func TestTrackerMatchesFullScanReference(t *testing.T) {
	delays := []int64{1, 2, 3, 4, 5, 8, 16}
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			delta := int64(1 + rng.Intn(4))
			gotSink, wantSink := &obs.CollectorSink{}, &obs.CollectorSink{}
			got := NewDynamicTracker(delta)
			got.SetSink(gotSink)
			want := newRefTracker(delta, wantSink)

			var colors []model.Color
			register := func(n int) {
				for i := 0; i < n; i++ {
					c := model.Color(len(colors))
					d := delays[rng.Intn(len(delays))]
					colors = append(colors, c)
					got.Register(c, d)
					want.Register(c, d)
				}
			}
			// Some colors exist before the first round; silent ones are
			// registered but never sent a job.
			register(3 + rng.Intn(5))
			silent := map[model.Color]bool{}
			for _, c := range colors {
				if rng.Intn(4) == 0 {
					silent[c] = true
				}
			}

			restoreAt := int64(20 + rng.Intn(40))
			skipAt := int64(70 + rng.Intn(20))
			v := &fakeView{cached: map[model.Color]bool{}, pending: map[model.Color]int{}, slots: 4}
			for k := int64(0); k < 120; k++ {
				if k == skipAt {
					k += 1 + int64(rng.Intn(6)) // rounds no phase is called for
				}
				v.round = k
				where := fmt.Sprintf("round %d", k)

				dropped := map[model.Color]int{}
				for i := rng.Intn(3); i > 0; i-- {
					dropped[model.Color(rng.Intn(len(colors)+2))] += 1 + rng.Intn(3)
				}
				// Keep a random part of the eligible set cached, so some
				// colors survive their multiple.
				clear(v.cached)
				for _, c := range want.eligibleColors() {
					if rng.Intn(3) == 0 {
						v.cached[c] = true
					}
				}
				got.DropPhase(v, dropped)
				want.DropPhase(v, dropped)
				compareTrackers(t, where+" drop", got, want, gotSink, wantSink)

				// Colors registered between the phases, at any round: the
				// streaming scheduler creates subcolors exactly here.
				if rng.Intn(5) == 0 {
					register(1 + rng.Intn(3))
				}
				var arrivals []model.Job
				for _, c := range colors {
					d := want.states[c].delay
					if silent[c] || k%d != 0 || rng.Intn(3) == 0 {
						continue
					}
					for n := rng.Intn(2*int(delta) + 1); n > 0; n-- {
						arrivals = append(arrivals, model.Job{Color: c, Arrival: k, Delay: d})
					}
				}
				rng.Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })
				got.ArrivalPhase(v, arrivals)
				want.ArrivalPhase(v, arrivals)
				compareTrackers(t, where+" arrival", got, want, gotSink, wantSink)

				if k == restoreAt {
					cp, err := got.Checkpoint()
					if err != nil {
						t.Fatal(err)
					}
					data, err := json.Marshal(cp)
					if err != nil {
						t.Fatal(err)
					}
					var back TrackerCheckpoint
					if err := json.Unmarshal(data, &back); err != nil {
						t.Fatal(err)
					}
					if got, err = RestoreTracker(&back); err != nil {
						t.Fatal(err)
					}
					got.SetSink(gotSink)
					compareTrackers(t, where+" restore", got, want, gotSink, wantSink)
				}
			}
		})
	}
}
