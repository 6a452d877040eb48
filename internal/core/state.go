// Package core implements the paper's online reconfiguration policies for
// rate-limited batched instances (Section 3): ΔLRU (3.1.1), EDF (3.1.2), and
// the main contribution ΔLRU-EDF (3.1.3), a combination that caches one set
// of colors by recency of ΔLRU timestamps and a second set by earliest
// deadline. All three share the counter / eligibility / timestamp state
// machine of Section 3.1 ("common aspects"), implemented by Tracker.
package core

import (
	"fmt"
	"slices"

	"rrsched/internal/model"
	"rrsched/internal/obs"
	"rrsched/internal/sim"
)

// colorState is the per-color bookkeeping of Section 3.1: the counter ℓ.cnt,
// the deadline ℓ.dd, the eligibility bit, and the most recent
// counter-wrapping rounds (enough to answer timestamp queries; the ΔLRU
// timestamp is the latest wrap strictly before the most recent multiple of
// D_ℓ, and the ΔLRU-K generalization uses the K-th latest).
//
// dd is stored as of arrival round ddRound and advanced lazily by
// Tracker.deadline: a color the arrival phase does not visit changes only
// its deadline, and that change is a function of the round.
type colorState struct {
	delay    int64
	cnt      int64
	dd       int64
	ddRound  int64 // the arrival round dd was last materialized at
	eligible bool
	wraps    []int64 // wrap rounds, most recent last (bounded by the tracker's depth)
	seen     bool    // a job of this color has arrived (epoch 0 started)
}

// wrap records a counter-wrapping event in round k, retaining at most depth
// entries.
func (cs *colorState) wrap(k int64, depth int) {
	cs.wraps = append(cs.wraps, k)
	if len(cs.wraps) > depth {
		cs.wraps = cs.wraps[len(cs.wraps)-depth:]
	}
}

// lastWrap returns the most recent wrap round (ok == false if none).
func (cs *colorState) lastWrap() (int64, bool) {
	if len(cs.wraps) == 0 {
		return 0, false
	}
	return cs.wraps[len(cs.wraps)-1], true
}

// timestampK returns the generalized ΔLRU-K timestamp at round now: the
// K-th latest counter-wrapping round strictly before k, where k is the most
// recent integral multiple of D_ℓ; 0 if fewer than K such wraps exist. K=1
// is the paper's timestamp (Section 3.1.1); larger K is the LRU-K flavor of
// O'Neil et al. discussed in the related work.
func (cs *colorState) timestampK(now int64, K int) int64 {
	k := (now / cs.delay) * cs.delay
	found := 0
	for i := len(cs.wraps) - 1; i >= 0; i-- {
		if cs.wraps[i] < k {
			found++
			if found == K {
				return cs.wraps[i]
			}
		}
	}
	return 0
}

// timestamp is the paper's K = 1 timestamp.
func (cs *colorState) timestamp(now int64) int64 { return cs.timestampK(now, 1) }

// Tracker maintains the shared per-color state for the Section 3 policies
// and the epoch / drop-classification accounting used by the analysis
// (epochs per Section 3.2, eligible vs ineligible drops per Lemma 3.2/3.4).
//
// A round costs O(eligible + arriving) colors, not O(registered): the drop
// phase can only end the epochs of eligible colors, so it walks the
// ascending eligible set; the arrival phase can only change the counter,
// eligibility and timestamps of colors with arrivals (an ineligible color's
// counter stays below Δ without them), so it walks those; and the one field
// every color at its multiple changes, ℓ.dd, is derived on read from the
// last arrival round (see deadline).
type Tracker struct {
	delta    int64
	states   map[model.Color]*colorState
	order    []model.Color // registered colors in ascending order
	eligible []model.Color // eligible colors in ascending order
	tsK      int           // timestamp depth K (1 = the paper's ΔLRU)

	// last is the round of the latest ArrivalPhase; synced is false until
	// the first one after construction or restore.
	last   int64
	synced bool

	completedEpochs int64
	seenColors      int64 // colors whose epoch 0 has started
	eligibleDrops   int64
	ineligibleDrops int64

	// super, when non-nil, performs the Section 3.4 super-epoch accounting
	// (see superepoch.go).
	super *superEpochTracker

	// sink, when non-nil, receives the tracker's decision events (epoch
	// ends, eligibility wraps). Emission is strictly after the state
	// transition, so attaching a sink never changes a decision.
	sink obs.EventSink

	// Per-round scratch, reused across calls so the steady-state decision
	// path allocates nothing. Slices returned from the helpers below alias
	// these buffers and are valid only until the next tracker call.
	countScratch map[model.Color]int64
	arrScratch   []model.Color
	addScratch   []model.Color
	mergeScratch []model.Color
	lruScratch   []model.Color
	protScratch  map[model.Color]bool
	cacheScratch map[model.Color]bool
	setScratch   []model.Color
	candScratch  []model.Color
}

// scratchMapReuse is the largest per-round scratch map that is cleared and
// reused; a larger one is replaced by a fresh map.
const scratchMapReuse = 64

// NewTracker returns a Tracker for the given environment. The core policies
// require batched arrivals (jobs of color ℓ arrive at integral multiples of
// D_ℓ); Reset panics otherwise, because the drop/arrival phase bookkeeping of
// Section 3.1 is only defined for batched inputs. Use the VarBatch and
// Distribute reductions for general inputs.
func NewTracker(env sim.Env) *Tracker {
	if !env.Seq.IsBatched() {
		panic("core: the Section 3 policies require batched arrivals; wrap general inputs with reduce.VarBatch")
	}
	t := NewDynamicTracker(env.Seq.Delta())
	if env.Obs != nil {
		t.sink = env.Obs.Sink
	}
	for _, c := range env.Seq.Colors() {
		d, _ := env.Seq.DelayBound(c)
		t.Register(c, d)
	}
	return t
}

// SetSink attaches an event sink for the tracker's decision events (epoch
// ends per Section 3.2, eligibility wraps per Section 3.1). NewTracker wires
// this automatically from Env.Obs; dynamic trackers attach it explicitly.
func (t *Tracker) SetSink(sink obs.EventSink) { t.sink = sink }

// NewDynamicTracker returns a Tracker whose color universe is registered
// incrementally with Register — the streaming interface uses this, since
// subcolors of the Distribute reduction come into existence as batches
// arrive. The caller is responsible for only feeding batched arrivals.
func NewDynamicTracker(delta int64) *Tracker {
	if delta <= 0 {
		panic("core: non-positive reconfiguration cost")
	}
	return &Tracker{
		delta:        delta,
		states:       make(map[model.Color]*colorState),
		tsK:          1,
		countScratch: make(map[model.Color]int64),
		protScratch:  make(map[model.Color]bool),
		cacheScratch: make(map[model.Color]bool),
	}
}

// SetTimestampK sets the timestamp depth K (>= 1): topByTimestamp then ranks
// colors by their K-th latest visible counter wrap (the LRU-K
// generalization). Must be set before the run.
func (t *Tracker) SetTimestampK(k int) {
	if k < 1 {
		panic("core: timestamp depth must be >= 1")
	}
	t.tsK = k
}

// Register adds a color with its delay bound to the universe; registering an
// existing color with the same delay is a no-op, with a different delay a
// panic.
func (t *Tracker) Register(c model.Color, delay int64) {
	if delay <= 0 {
		panic("core: non-positive delay bound")
	}
	if cs, ok := t.states[c]; ok {
		if cs.delay != delay {
			panic(fmt.Sprintf("core: color %v re-registered with delay %d (was %d)", c, delay, cs.delay))
		}
		return
	}
	t.states[c] = &colorState{delay: delay, ddRound: t.last}
	i, _ := slices.BinarySearch(t.order, c)
	t.order = slices.Insert(t.order, i, c)
}

// ComputeTarget runs the ΔLRU-EDF reconfiguration scheme (Section 3.1.3)
// directly on a tracker and view: the top lruSlots eligible colors by
// timestamp are protected, and the remaining capacity is managed by the EDF
// scheme. This is the policy core exposed for incremental drivers
// (internal/stream); DeltaLRUEDF.Target delegates to the same logic.
func ComputeTarget(t *Tracker, v sim.View, lruSlots int) []model.Color {
	lru := t.topByTimestamp(v.Round(), lruSlots)
	return edfUpdate(t, v, v.CachedColors(), lru, v.Slots()-lruSlots)
}

// state returns the colorState of c; colors outside the universe map to nil.
func (t *Tracker) state(c model.Color) *colorState { return t.states[c] }

// Eligible reports whether color c is currently eligible.
func (t *Tracker) Eligible(c model.Color) bool {
	cs := t.states[c]
	return cs != nil && cs.eligible
}

// Deadline returns ℓ.dd of color c.
func (t *Tracker) Deadline(c model.Color) int64 {
	cs := t.states[c]
	if cs == nil {
		return 0
	}
	return t.deadline(cs)
}

// deadline returns ℓ.dd as of the latest arrival phase. The phase sets
// ℓ.dd = k + D_ℓ at every multiple k of D_ℓ whether or not ℓ has arrivals,
// so once a multiple of D_ℓ has passed since the stored value was
// materialized, the latest such multiple k = ⌊last/D_ℓ⌋·D_ℓ determines it. A
// color registered after round last keeps its initial 0 until its first
// multiple, as in the paper's state machine.
func (t *Tracker) deadline(cs *colorState) int64 {
	if t.synced {
		if k := t.last / cs.delay * cs.delay; k > cs.ddRound {
			return k + cs.delay
		}
	}
	return cs.dd
}

// sync moves the lazy-deadline clock to arrival round k. Deriving ℓ.dd from
// the last round assumes the arrival phase ran in every round since each
// stored deadline was materialized, which holds whenever k follows the
// previous round. The first phase after construction or restore, and any
// phase that repeats, skips or rewinds rounds, first materializes every
// color's deadline (an O(colors) pass that the engine and the streaming
// scheduler pay once per run or restore).
func (t *Tracker) sync(k int64) {
	if !t.synced || k != t.last+1 {
		for _, cs := range t.states {
			cs.dd, cs.ddRound = t.deadline(cs), k-1
		}
	}
	t.last, t.synced = k, true
}

// EligibleCached reports whether every eligible color is cached in v. It
// stops at the first uncached one, so it visits at most one color more than
// v caches.
func (t *Tracker) EligibleCached(v sim.View) bool {
	for _, c := range t.eligible {
		if !v.Cached(c) {
			return false
		}
	}
	return true
}

// Skip advances the tracker over rounds from..last, each of which has no
// drops and no arrivals while every eligible color is cached (see
// EligibleCached). Such a round's drop phase lapses no color, and its arrival
// phase changes only ℓ.dd, which deadline derives from the round. So Skip
// runs the first skipped round's sync, which materializes every deadline if
// that round does not follow the last one, and then moves the clock to last.
// The tracker ends exactly as stepping each round would leave it, in O(1)
// after that sync.
func (t *Tracker) Skip(from, last int64) {
	if last < from {
		return
	}
	t.sync(from)
	t.last = last
}

// Timestamp returns the ΔLRU timestamp of color c at round now.
func (t *Tracker) Timestamp(c model.Color, now int64) int64 {
	cs := t.states[c]
	if cs == nil {
		return 0
	}
	return cs.timestampK(now, t.tsK)
}

// NumEpochs returns the number of epochs associated with the input so far,
// counting the incomplete last epoch of every color that has started one
// (Section 3.2: an epoch of ℓ ends the moment ℓ becomes ineligible; colors
// start ineligible and epoch 0 starts with the color's first job).
func (t *Tracker) NumEpochs() int64 {
	return t.completedEpochs + t.seenColors // plus each current (possibly incomplete) epoch
}

// EligibleDrops returns the drop cost incurred on eligible jobs (jobs
// dropped while their color was eligible).
func (t *Tracker) EligibleDrops() int64 { return t.eligibleDrops }

// IneligibleDrops returns the drop cost incurred on ineligible jobs.
func (t *Tracker) IneligibleDrops() int64 { return t.ineligibleDrops }

// DropPhase performs the Section 3.1 drop-phase bookkeeping for round k:
// classify this round's drops by the (pre-transition) eligibility of their
// color, then, for every color ℓ with k ≡ 0 (mod D_ℓ) that is eligible and
// not cached, make ℓ ineligible and zero its counter, ending its epoch. Only
// the eligible set is walked, in ascending order, and compacted in place.
func (t *Tracker) DropPhase(v sim.View, dropped map[model.Color]int) {
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
	kept := t.eligible[:0]
	for _, c := range t.eligible {
		cs := t.states[c]
		if k%cs.delay != 0 || v.Cached(c) {
			kept = append(kept, c)
			continue
		}
		cs.eligible = false
		cs.cnt = 0
		t.completedEpochs++
		if t.super != nil {
			// The epoch of c ends here and its successor begins
			// immediately (Section 3.2).
			t.super.onEpochStart(c)
		}
		if t.sink != nil {
			t.sink.Emit(obs.Event{Kind: obs.EventEpochEnd, Round: k, Color: c, Resource: -1, N: t.completedEpochs})
		}
	}
	t.eligible = kept
}

// ArrivalPhase performs the Section 3.1 arrival-phase bookkeeping for round
// k: for every color ℓ with k ≡ 0 (mod D_ℓ), advance its deadline to k+D_ℓ,
// add this round's arrivals to its counter, and on reaching Δ wrap the
// counter (recording the wrap round) and make the color eligible.
//
// A color without arrivals keeps its counter below Δ, so only the colors
// with arrivals at their multiple are visited, in ascending order (the order
// of the EventEligible emissions); every other deadline advances lazily. The
// colors that became eligible are merged into the eligible set in one pass.
func (t *Tracker) ArrivalPhase(v sim.View, arrivals []model.Job) {
	// Clearing or ranging over a map costs its capacity, not its length, so
	// after a round with many arriving colors (a burst) start afresh rather
	// than drag the grown map through every later round.
	counts := t.countScratch
	if len(counts) > scratchMapReuse {
		counts = make(map[model.Color]int64)
		t.countScratch = counts
	} else {
		clear(counts)
	}
	for _, j := range arrivals {
		counts[j.Color]++
	}
	k := v.Round()
	t.sync(k)
	t.observeArrivalForSuperEpochs(v, k)
	arriving := t.arrScratch[:0]
	for c := range counts {
		if cs := t.states[c]; cs != nil && k%cs.delay == 0 {
			arriving = append(arriving, c)
		}
	}
	slices.Sort(arriving)
	t.arrScratch = arriving
	added := t.addScratch[:0]
	for _, c := range arriving {
		cs := t.states[c]
		if !cs.seen {
			cs.seen = true
			t.seenColors++
		}
		cs.cnt += counts[c]
		if cs.cnt >= t.delta {
			cs.cnt %= t.delta
			cs.wrap(k, t.tsK+1)
			if !cs.eligible {
				cs.eligible = true
				added = append(added, c)
			}
			if t.sink != nil {
				t.sink.Emit(obs.Event{Kind: obs.EventEligible, Round: k, Color: c, Resource: -1, N: t.delta})
			}
		}
	}
	t.addScratch = added
	t.mergeEligible(added)
}

// mergeEligible merges ascending colors, none of them already eligible, into
// the ascending eligible set in a single O(eligible + added) pass, swapping
// the set with its scratch buffer.
func (t *Tracker) mergeEligible(added []model.Color) {
	if len(added) == 0 {
		return
	}
	old := t.eligible
	out := t.mergeScratch[:0]
	i, j := 0, 0
	for i < len(old) && j < len(added) {
		if old[i] < added[j] {
			out = append(out, old[i])
			i++
		} else {
			out = append(out, added[j])
			j++
		}
	}
	out = append(out, old[i:]...)
	out = append(out, added[j:]...)
	t.eligible, t.mergeScratch = out, old[:0]
}

// eligibleColors returns the eligible colors in ascending color order (the
// paper's "consistent order of colors"). The returned slice aliases the
// tracker's eligible set: it is valid only until the next phase call.
func (t *Tracker) eligibleColors() []model.Color { return t.eligible }

// topByTimestamp returns the (at most q) eligible colors with the most
// recent timestamps at round now, ties broken by the consistent color order.
// The ranking key is a total order (no two distinct colors compare equal), so
// the unstable sort below produces the same result the spec's stable sort
// would. The returned slice aliases tracker scratch, valid until the next
// topByTimestamp call.
func (t *Tracker) topByTimestamp(now int64, q int) []model.Color {
	elig := append(t.lruScratch[:0], t.eligibleColors()...)
	t.lruScratch = elig
	slices.SortFunc(elig, func(a, b model.Color) int {
		ta := t.states[a].timestampK(now, t.tsK)
		tb := t.states[b].timestampK(now, t.tsK)
		if ta != tb {
			if ta > tb {
				return -1
			}
			return 1
		}
		if a < b {
			return -1
		}
		return 1
	})
	if len(elig) > q {
		elig = elig[:q]
	}
	return elig
}

// edfRank is the EDF ranking key of Section 3.1.2: nonidle colors first,
// then ascending deadline, then ascending delay bound, then the consistent
// order of colors. Smaller compares first (better rank).
type edfRank struct {
	idle  bool
	dd    int64
	delay int64
	color model.Color
}

func (a edfRank) less(b edfRank) bool {
	if a.idle != b.idle {
		return !a.idle // nonidle first
	}
	if a.dd != b.dd {
		return a.dd < b.dd
	}
	if a.delay != b.delay {
		return a.delay < b.delay
	}
	return a.color < b.color
}

// rankEDF returns a copy of the given colors sorted by the EDF ranking at the
// current view state (idleness comes from the live pending counts).
func (t *Tracker) rankEDF(v sim.View, colors []model.Color) []model.Color {
	ranked := make([]model.Color, len(colors))
	copy(ranked, colors)
	t.sortEDF(v, ranked)
	return ranked
}

// sortEDF sorts colors in place by the EDF ranking. The edfRank key is a
// total order (the color field breaks every tie), so the unstable sort
// produces the same permutation a stable sort would.
func (t *Tracker) sortEDF(v sim.View, colors []model.Color) {
	slices.SortFunc(colors, func(a, b model.Color) int {
		ca, cb := t.states[a], t.states[b]
		ka := edfRank{idle: v.Pending(a) == 0, dd: t.deadline(ca), delay: ca.delay, color: a}
		kb := edfRank{idle: v.Pending(b) == 0, dd: t.deadline(cb), delay: cb.delay, color: b}
		if ka.less(kb) {
			return -1
		}
		return 1
	})
}

// DelayBoundOf returns the registered delay bound of color c (0 if the
// color is unknown).
func (t *Tracker) DelayBoundOf(c model.Color) int64 {
	cs := t.states[c]
	if cs == nil {
		return 0
	}
	return cs.delay
}
