// Package stream provides the incremental (truly online) interface to the
// paper's full stack. The batch API (reduce.RunVarBatch) consumes a complete
// Sequence, which is convenient for simulation; stream.Scheduler instead
// accepts requests round by round and emits reconfiguration and execution
// decisions immediately, demonstrating that VarBatch ∘ Distribute ∘ ΔLRU-EDF
// is genuinely causal: every decision depends only on the past.
//
//	s, _ := stream.New(stream.Config{Delta: 4, Resources: 8})
//	for r := int64(0); ; r++ {
//	    dec, _ := s.Push(r, jobsArrivingAt(r))
//	    apply(dec.Reconfigs, dec.Executions)
//	}
//	cost := s.Cost()
//
// Internally the scheduler performs the VarBatch delay (jobs are held until
// the next half-block boundary of their rounded delay bound), the Distribute
// subcolor split (per-batch buckets of at most h jobs), and the ΔLRU-EDF
// round bookkeeping, mirroring the batch pipeline decision for decision.
package stream

import (
	"fmt"
	"slices"

	"rrsched/internal/model"
	"rrsched/internal/queue"
	"rrsched/internal/reduce"
)

// Config parameterizes a streaming scheduler.
type Config struct {
	// Delta is the reconfiguration cost.
	Delta int64
	// Resources is the number of resources n (a positive multiple of 4 for
	// the paper's two-way replication and two-way slot split).
	Resources int
}

// Decision is what the scheduler decided in one round.
type Decision struct {
	Round int64
	// Reconfigs are the resource recolorings performed this round (outer
	// colors; already minimal — physical no-ops are elided).
	Reconfigs []model.Reconfigure
	// Executions are the jobs executed this round, by caller-provided ID.
	Executions []model.Execution
	// Dropped are the IDs of jobs dropped at the start of this round
	// (deadline reached before execution).
	Dropped []int64
}

// Scheduler is an incremental online scheduler. It is not safe for
// concurrent use; decisions are deterministic given the push sequence.
type Scheduler struct {
	cfg   Config
	round int64 // next round to process

	// Outer state.
	pendingByColor map[model.Color]*queue.Ring[model.Job] // outer pending jobs (released or not — execution eligibility checked per job)
	busy           []model.Color                          // colors with outer pending jobs, ascending
	delays         map[model.Color]int64                  // outer delay bounds
	futureReleases map[int64][]model.Job                  // VarBatch-delayed jobs by release round
	releasePool    [][]model.Job                          // emptied release slices for reuse
	locColor       []model.Color                          // physical colors

	// Inner (reduced) state.
	inner        *innerState
	cost         model.Cost
	executed     int
	dropped      int
	pushedJobs   int
	maxScheduled int64          // highest job ID accepted so far (-1 before the first)
	inflight     map[int64]bool // IDs of accepted jobs not yet executed or dropped
}

// New returns a streaming scheduler.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Delta <= 0 {
		return nil, fmt.Errorf("stream: non-positive Delta %d", cfg.Delta)
	}
	if cfg.Resources <= 0 || cfg.Resources%4 != 0 {
		return nil, fmt.Errorf("stream: resources must be a positive multiple of 4, got %d", cfg.Resources)
	}
	s := &Scheduler{
		cfg:            cfg,
		pendingByColor: map[model.Color]*queue.Ring[model.Job]{},
		delays:         map[model.Color]int64{},
		futureReleases: map[int64][]model.Job{},
		locColor:       make([]model.Color, cfg.Resources),
		inner:          newInnerState(cfg),
		maxScheduled:   -1,
		inflight:       map[int64]bool{},
	}
	for i := range s.locColor {
		s.locColor[i] = model.Black
	}
	return s, nil
}

// Cost returns the cost accumulated so far.
func (s *Scheduler) Cost() model.Cost { return s.cost }

// Round returns the next round the scheduler will process. Push to any round
// at or past it fast-forwards the gap, which is what lets a scheduler restored
// from an older checkpoint catch up without an explicit replay loop; a
// settled gap (see Push) costs O(1) however long it is.
func (s *Scheduler) Round() int64 { return s.round }

// Executed returns the number of jobs executed so far.
func (s *Scheduler) Executed() int { return s.executed }

// Dropped returns the number of jobs dropped so far.
func (s *Scheduler) Dropped() int { return s.dropped }

// Push advances the scheduler to round r (processing any skipped empty
// rounds first) and delivers the round's arrivals. Rounds must be pushed in
// nondecreasing order; jobs must carry arrival == r, a positive delay bound,
// a non-black color consistent with earlier pushes, and unique IDs.
//
// Empty rounds of a settled scheduler (see settled) decide nothing and change
// nothing but the clocks, so Push jumps over them in O(1): the skipped gap,
// and round r itself when it brings no jobs. Decisions and snapshots are
// identical to stepping every round.
func (s *Scheduler) Push(r int64, jobs []model.Job) (Decision, error) {
	if r < s.round {
		return Decision{}, fmt.Errorf("stream: round %d already processed (next is %d)", r, s.round)
	}
	batchSeen := make(map[int64]bool, len(jobs))
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return Decision{}, err
		}
		if j.Arrival != r {
			return Decision{}, fmt.Errorf("stream: job %d has arrival %d, pushed in round %d", j.ID, j.Arrival, r)
		}
		if d, ok := s.delays[j.Color]; ok && d != j.Delay {
			return Decision{}, fmt.Errorf("stream: color %v has delay bound %d, job %d has %d", j.Color, d, j.ID, j.Delay)
		}
		// Reject duplicated IDs — a crashed producer re-sending in-flight work
		// would otherwise corrupt the pending queues. (A replay of an already
		// retired round is caught by the round check above.)
		if s.inflight[j.ID] || batchSeen[j.ID] {
			return Decision{}, fmt.Errorf("stream: job id %d already accepted (duplicate push)", j.ID)
		}
		batchSeen[j.ID] = true
	}
	// Process skipped empty rounds so drops and batched bookkeeping land on
	// time, until the scheduler settles; from there on they are no-ops.
	idle := s.settled()
	for s.round < r && !idle {
		if _, err := s.step(s.round, nil); err != nil {
			return Decision{}, err
		}
		s.round++
		idle = s.settled()
	}
	if idle {
		if len(jobs) == 0 {
			s.skip(r)
			return Decision{Round: r}, nil
		}
		s.skip(r - 1)
	}
	dec, err := s.step(r, jobs)
	if err != nil {
		return Decision{}, err
	}
	s.round = r + 1
	return dec, nil
}

// Drain processes rounds until every accepted job has been executed or
// dropped, returning the decisions of those final rounds.
func (s *Scheduler) Drain() ([]Decision, error) {
	var out []Decision
	for s.executed+s.dropped < s.pushedJobs {
		dec, err := s.Push(s.round, nil)
		if err != nil {
			return out, err
		}
		out = append(out, dec)
	}
	return out, nil
}

// settled reports whether the scheduler sits at the fixed point of its empty
// rounds: no outer job is in flight or awaiting release, no inner job is
// pending, every eligible inner color is cached (in at most Slots() colors),
// and the outer colors already project the inner ones. An empty round then
// drops, releases and executes nothing; the tracker's drop phase lapses only
// uncached eligible colors, so none; ComputeTarget returns the cached set, so
// placement and projection change nothing. Its one effect is the round
// number, which skip applies directly. The check fails fast on a busy
// scheduler and visits at most O(Resources) colors otherwise.
func (s *Scheduler) settled() bool {
	st := s.inner
	if len(s.inflight) > 0 || len(s.futureReleases) > 0 || st.queued > 0 {
		return false
	}
	if len(st.cached) > st.n/2 || !st.tracker.EligibleCached(st.view()) {
		return false
	}
	for loc, ic := range st.locColor {
		if ic != model.Black && s.locColor[loc] != st.toOuter[ic] {
			return false
		}
	}
	return true
}

// skip advances a settled scheduler over rounds s.round..last without
// stepping them (a no-op when last < s.round).
func (s *Scheduler) skip(last int64) {
	if last < s.round {
		return
	}
	s.inner.skip(s.round, last)
	s.round = last + 1
}

// step runs one full round: outer drop phase, VarBatch release + Distribute
// split + inner round, then projection of the inner configuration and the
// outer execution phase.
func (s *Scheduler) step(r int64, arrivals []model.Job) (Decision, error) {
	dec := Decision{Round: r}

	// Outer drop phase: drop jobs whose deadline is r. The colors with
	// pending jobs are visited in ascending order so the decision trace is
	// deterministic (and therefore reproducible across checkpoint/restore).
	for _, c := range s.busy {
		q := s.pendingByColor[c]
		for q.Len() > 0 && q.Peek().Deadline() <= r {
			j := q.Pop()
			delete(s.inflight, j.ID)
			dec.Dropped = append(dec.Dropped, j.ID)
			s.dropped++
			s.cost.Drop++
		}
	}

	// Outer arrival phase: admit jobs, register delay bounds, and schedule
	// their VarBatch releases.
	for _, j := range arrivals {
		s.delays[j.Color] = j.Delay
		q := s.pendingByColor[j.Color]
		if q == nil {
			q = &queue.Ring[model.Job]{}
			s.pendingByColor[j.Color] = q
		}
		if q.Len() == 0 {
			s.markBusy(j.Color)
		}
		q.Push(j)
		s.inflight[j.ID] = true
		if j.ID > s.maxScheduled {
			s.maxScheduled = j.ID
		}
		s.pushedJobs++
		h := reduce.BatchedDelay(j.Delay)
		release := j.Arrival
		if h < j.Delay {
			release = (j.Arrival/h + 1) * h
		}
		batch, ok := s.futureReleases[release]
		if !ok && len(s.releasePool) > 0 {
			batch = s.releasePool[len(s.releasePool)-1]
			s.releasePool = s.releasePool[:len(s.releasePool)-1]
		}
		s.futureReleases[release] = append(batch, j)
	}

	// Inner round: feed this round's releases (as batched inner jobs) and
	// run the full inner simulation (ΔLRU-EDF bookkeeping, placement,
	// execution).
	released, ok := s.futureReleases[r]
	delete(s.futureReleases, r)
	s.inner.round(r, released)
	if ok && cap(released) <= maxPooledRelease {
		s.releasePool = append(s.releasePool, released[:0])
	}

	// Projection (Section 4.1): whenever the inner schedule configures
	// (ℓ, j) on a location, the outer schedule configures ℓ there. Physical
	// no-ops — including subcolor moves (ℓ, 0) -> (ℓ, 1) — are free.
	dec.Reconfigs = s.project(r)

	// Outer execution phase: each location executes the earliest-deadline
	// pending job of its color. Like the batch pipeline's replay, execution
	// uses the job's ORIGINAL window [arrival, deadline): the VarBatch delay
	// constrains only the inner bookkeeping, and executing an already
	// arrived job early is always legal and never worse.
	for loc := 0; loc < s.cfg.Resources; loc++ {
		c := s.locColor[loc]
		if c == model.Black {
			continue
		}
		q := s.pendingByColor[c]
		if q == nil || q.Len() == 0 {
			continue
		}
		j := q.Pop()
		delete(s.inflight, j.ID)
		dec.Executions = append(dec.Executions, model.Execution{Round: r, Resource: loc, JobID: j.ID})
		s.executed++
	}
	kept := s.busy[:0]
	for _, c := range s.busy {
		if s.pendingByColor[c].Len() > 0 {
			kept = append(kept, c)
		}
	}
	s.busy = kept
	return dec, nil
}

// markBusy adds c to the ascending busy list unless it is there already (a
// color the drop phase emptied stays listed until the end of the round).
func (s *Scheduler) markBusy(c model.Color) {
	if i, found := slices.BinarySearch(s.busy, c); !found {
		s.busy = slices.Insert(s.busy, i, c)
	}
}

// maxPooledRelease is the largest release slice kept for reuse; the slice of
// a burst is left to the collector rather than held for the tenant's life.
const maxPooledRelease = 256

// releaseRound is the VarBatch release round of a job: the start of the
// half-block following its arrival (jobs with delay 1 release immediately).
func releaseRound(j model.Job) int64 {
	h := reduce.BatchedDelay(j.Delay)
	if h >= j.Delay {
		return j.Arrival
	}
	return (j.Arrival/h + 1) * h
}

// project realizes the inner location assignment as outer colors: location
// loc wants outerOf(innerColor(loc)); black inner locations leave the outer
// location unchanged (the physical resource keeps its color, as in the
// paper's model).
func (s *Scheduler) project(r int64) []model.Reconfigure {
	var recs []model.Reconfigure
	for loc := 0; loc < s.cfg.Resources; loc++ {
		ic := s.inner.locColor[loc]
		if ic == model.Black {
			continue
		}
		want := s.inner.outerOf(ic)
		if s.locColor[loc] == want {
			continue
		}
		s.locColor[loc] = want
		recs = append(recs, model.Reconfigure{Round: r, Resource: loc, To: want})
		s.cost.Reconfig += s.cfg.Delta
	}
	return recs
}
