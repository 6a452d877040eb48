package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"rrsched/internal/core"
	"rrsched/internal/model"
	"rrsched/internal/queue"
)

// checkpoint is the JSON image of a Scheduler: every piece of outer and inner
// state, with map contents flattened into sorted slices so equal schedulers
// produce byte-identical snapshots.
type checkpoint struct {
	Version   int   `json:"version"`
	Delta     int64 `json:"delta"`
	Resources int   `json:"resources"`
	Round     int64 `json:"round"`

	Cost         model.Cost `json:"cost"`
	Executed     int        `json:"executed"`
	Dropped      int        `json:"dropped"`
	PushedJobs   int        `json:"pushed_jobs"`
	MaxScheduled int64      `json:"max_scheduled"`

	Delays   []colorDelayCP   `json:"delays,omitempty"`
	Pending  []outerPendingCP `json:"pending,omitempty"`
	Releases []releaseCP      `json:"releases,omitempty"`
	LocColor []model.Color    `json:"loc_color"`

	Inner innerCP `json:"inner"`
}

type colorDelayCP struct {
	Color model.Color `json:"color"`
	Delay int64       `json:"delay"`
}

type jobCP struct {
	ID      int64       `json:"id"`
	Color   model.Color `json:"color"`
	Arrival int64       `json:"arrival"`
	Delay   int64       `json:"delay"`
}

type outerPendingCP struct {
	Color model.Color `json:"color"`
	Jobs  []jobCP     `json:"jobs"`
}

type releaseCP struct {
	Round int64   `json:"round"`
	Jobs  []jobCP `json:"jobs"`
}

type innerCP struct {
	Now       int64                   `json:"now"`
	ToOuter   []model.Color           `json:"to_outer,omitempty"`
	Subcolors []subcolorCP            `json:"subcolors,omitempty"`
	Pending   []innerPendingCP        `json:"pending,omitempty"`
	LocColor  []model.Color           `json:"loc_color"`
	ColorLocs []colorLocsCP           `json:"color_locs,omitempty"`
	FreeLocs  []int                   `json:"free_locs,omitempty"`
	Tracker   *core.TrackerCheckpoint `json:"tracker"`
}

type subcolorCP struct {
	Outer  model.Color `json:"outer"`
	Bucket int64       `json:"bucket"`
	Inner  model.Color `json:"inner"`
}

type innerPendingCP struct {
	Color     model.Color `json:"color"`
	Deadlines []int64     `json:"deadlines"`
}

type colorLocsCP struct {
	Color model.Color `json:"color"`
	Locs  []int       `json:"locs"`
}

const checkpointVersion = 1

func toJobCPs(jobs []model.Job) []jobCP {
	out := make([]jobCP, len(jobs))
	for i, j := range jobs {
		out[i] = jobCP{ID: j.ID, Color: j.Color, Arrival: j.Arrival, Delay: j.Delay}
	}
	return out
}

func fromJobCPs(jobs []jobCP) []model.Job {
	out := make([]model.Job, len(jobs))
	for i, j := range jobs {
		out[i] = model.Job{ID: j.ID, Color: j.Color, Arrival: j.Arrival, Delay: j.Delay}
	}
	return out
}

// Snapshot serializes the scheduler's complete state as indented JSON: the
// human-readable debug view of AppendSnapshot's image, byte-identical to
// json.Indent over it. The snapshot is deterministic (equal schedulers yield
// identical bytes) and self-contained: Restore on it resumes the run with
// decisions identical to an uninterrupted scheduler fed the same pushes.
func (s *Scheduler) Snapshot() ([]byte, error) {
	compact, err := s.AppendSnapshot(nil)
	if err != nil {
		return nil, err
	}
	// Indented snapshots run about 2.4x their compact size (the after-burst
	// fixture: 195 KB vs 81 KB). Reserving 3x lets Indent write in place;
	// its own 2x reservation would overflow and copy the result once more.
	var buf bytes.Buffer
	buf.Grow(3 * len(compact))
	if err := json.Indent(&buf, compact, "", "  "); err != nil {
		return nil, fmt.Errorf("stream: snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// AppendSnapshot appends the scheduler's state image to dst as compact JSON
// and returns the extended slice. This is the encoding machines exchange
// (checkpoints, chunk payloads, migration frames); it carries exactly what
// Snapshot does without the whitespace, and Restore accepts either.
func (s *Scheduler) AppendSnapshot(dst []byte) ([]byte, error) {
	tcp, err := s.inner.tracker.Checkpoint()
	if err != nil {
		return dst, fmt.Errorf("stream: snapshot: %w", err)
	}
	cp := checkpoint{
		Version:      checkpointVersion,
		Delta:        s.cfg.Delta,
		Resources:    s.cfg.Resources,
		Round:        s.round,
		Cost:         s.cost,
		Executed:     s.executed,
		Dropped:      s.dropped,
		PushedJobs:   s.pushedJobs,
		MaxScheduled: s.maxScheduled,
		LocColor:     s.locColor,
	}
	for c, d := range s.delays {
		cp.Delays = append(cp.Delays, colorDelayCP{Color: c, Delay: d})
	}
	sort.Slice(cp.Delays, func(i, j int) bool { return cp.Delays[i].Color < cp.Delays[j].Color })
	for c, q := range s.pendingByColor {
		if q.Len() == 0 {
			continue
		}
		cp.Pending = append(cp.Pending, outerPendingCP{Color: c, Jobs: toJobCPs(q.Items())})
	}
	sort.Slice(cp.Pending, func(i, j int) bool { return cp.Pending[i].Color < cp.Pending[j].Color })
	for r, jobs := range s.futureReleases {
		cp.Releases = append(cp.Releases, releaseCP{Round: r, Jobs: toJobCPs(jobs)})
	}
	sort.Slice(cp.Releases, func(i, j int) bool { return cp.Releases[i].Round < cp.Releases[j].Round })

	st := s.inner
	cp.Inner = innerCP{
		Now:      st.now,
		ToOuter:  st.toOuter,
		LocColor: st.locColor,
		FreeLocs: st.freeLocs,
		Tracker:  tcp,
	}
	for k, ic := range st.inner {
		cp.Inner.Subcolors = append(cp.Inner.Subcolors, subcolorCP{Outer: k.outer, Bucket: k.j, Inner: ic})
	}
	sort.Slice(cp.Inner.Subcolors, func(i, j int) bool { return cp.Inner.Subcolors[i].Inner < cp.Inner.Subcolors[j].Inner })
	for c := range st.pending {
		if q := &st.pending[c]; q.Len() > 0 {
			cp.Inner.Pending = append(cp.Inner.Pending, innerPendingCP{Color: model.Color(c), Deadlines: q.Items()})
		}
	}
	for c, locs := range st.colorLocs {
		cp.Inner.ColorLocs = append(cp.Inner.ColorLocs, colorLocsCP{Color: c, Locs: locs})
	}
	sort.Slice(cp.Inner.ColorLocs, func(i, j int) bool { return cp.Inner.ColorLocs[i].Color < cp.Inner.ColorLocs[j].Color })

	buf := bytes.NewBuffer(dst)
	if err := json.NewEncoder(buf).Encode(cp); err != nil {
		return dst, fmt.Errorf("stream: snapshot: %w", err)
	}
	// Encode terminates the value with a newline; the image ends at the value.
	out := buf.Bytes()
	return out[:len(out)-1], nil
}

// Restore rebuilds a scheduler from a Snapshot. The checkpoint is validated
// field by field — a corrupted or truncated snapshot is rejected with an
// error rather than resumed into an inconsistent run.
func Restore(data []byte) (*Scheduler, error) {
	var cp checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("stream: decoding checkpoint: %w", err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("stream: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	s, err := New(Config{Delta: cp.Delta, Resources: cp.Resources})
	if err != nil {
		return nil, fmt.Errorf("stream: restoring checkpoint: %w", err)
	}
	if cp.Round < 0 {
		return nil, fmt.Errorf("stream: checkpoint has negative round %d", cp.Round)
	}
	if cp.Executed < 0 || cp.Dropped < 0 || cp.PushedJobs < 0 || cp.Executed+cp.Dropped > cp.PushedJobs {
		return nil, fmt.Errorf("stream: checkpoint job accounting is inconsistent (%d executed, %d dropped, %d pushed)",
			cp.Executed, cp.Dropped, cp.PushedJobs)
	}
	if len(cp.LocColor) != cp.Resources {
		return nil, fmt.Errorf("stream: checkpoint has %d outer locations, want %d", len(cp.LocColor), cp.Resources)
	}
	if len(cp.Inner.LocColor) != cp.Resources {
		return nil, fmt.Errorf("stream: checkpoint has %d inner locations, want %d", len(cp.Inner.LocColor), cp.Resources)
	}
	s.round = cp.Round
	s.cost = cp.Cost
	s.executed = cp.Executed
	s.dropped = cp.Dropped
	s.pushedJobs = cp.PushedJobs
	s.maxScheduled = cp.MaxScheduled
	copy(s.locColor, cp.LocColor)
	for _, d := range cp.Delays {
		if d.Color < 0 || d.Delay <= 0 {
			return nil, fmt.Errorf("stream: checkpoint has invalid delay bound %d for color %v", d.Delay, d.Color)
		}
		s.delays[d.Color] = d.Delay
	}
	for _, p := range cp.Pending {
		if _, ok := s.pendingByColor[p.Color]; ok {
			return nil, fmt.Errorf("stream: checkpoint repeats pending color %v", p.Color)
		}
		q := &queue.Ring[model.Job]{}
		for _, j := range fromJobCPs(p.Jobs) {
			if err := j.Validate(); err != nil {
				return nil, fmt.Errorf("stream: checkpoint pending job: %w", err)
			}
			if s.inflight[j.ID] {
				return nil, fmt.Errorf("stream: checkpoint repeats pending job id %d", j.ID)
			}
			s.inflight[j.ID] = true
			q.Push(j)
		}
		s.pendingByColor[p.Color] = q
	}
	for _, r := range cp.Releases {
		if _, ok := s.futureReleases[r.Round]; ok {
			return nil, fmt.Errorf("stream: checkpoint repeats release round %d", r.Round)
		}
		s.futureReleases[r.Round] = fromJobCPs(r.Jobs)
	}

	st := s.inner
	st.now = cp.Inner.Now
	st.toOuter = append([]model.Color(nil), cp.Inner.ToOuter...)
	copy(st.locColor, cp.Inner.LocColor)
	st.freeLocs = append(st.freeLocs[:0], cp.Inner.FreeLocs...)
	for _, sc := range cp.Inner.Subcolors {
		if sc.Inner < 0 || int(sc.Inner) >= len(st.toOuter) {
			return nil, fmt.Errorf("stream: checkpoint subcolor %v out of range", sc.Inner)
		}
		if st.toOuter[sc.Inner] != sc.Outer {
			return nil, fmt.Errorf("stream: checkpoint subcolor %v maps to outer %v, table says %v",
				sc.Inner, sc.Outer, st.toOuter[sc.Inner])
		}
		k := subKey{outer: sc.Outer, j: sc.Bucket}
		if _, ok := st.inner[k]; ok {
			return nil, fmt.Errorf("stream: checkpoint repeats subcolor key (%v,%d)", sc.Outer, sc.Bucket)
		}
		st.inner[k] = sc.Inner
	}
	if len(st.inner) != len(st.toOuter) {
		return nil, fmt.Errorf("stream: checkpoint has %d subcolor keys for %d inner colors", len(st.inner), len(st.toOuter))
	}
	st.pending = make([]queue.Ring[int64], len(st.toOuter))
	st.lastDue = make([]int64, len(st.toOuter))
	for i := range st.lastDue {
		st.lastDue[i] = -1
	}
	for loc, c := range st.locColor {
		if c != model.Black && (c < 0 || int(c) >= len(st.toOuter)) {
			return nil, fmt.Errorf("stream: checkpoint colors inner location %d with unknown inner color %v", loc, c)
		}
	}
	seenPending := make([]bool, len(st.toOuter))
	for _, p := range cp.Inner.Pending {
		if p.Color < 0 || int(p.Color) >= len(st.toOuter) {
			return nil, fmt.Errorf("stream: checkpoint has pending jobs for unknown inner color %v", p.Color)
		}
		if seenPending[p.Color] {
			return nil, fmt.Errorf("stream: checkpoint repeats inner pending color %v", p.Color)
		}
		seenPending[p.Color] = true
		for _, d := range p.Deadlines {
			st.enqueue(p.Color, d, cp.Round)
		}
	}
	seenLoc := make([]bool, cp.Resources)
	for _, cl := range cp.Inner.ColorLocs {
		if _, ok := st.colorLocs[cl.Color]; ok {
			return nil, fmt.Errorf("stream: checkpoint repeats cached color %v", cl.Color)
		}
		for _, loc := range cl.Locs {
			if loc < 0 || loc >= cp.Resources {
				return nil, fmt.Errorf("stream: checkpoint places color %v on location %d of %d", cl.Color, loc, cp.Resources)
			}
			if seenLoc[loc] {
				return nil, fmt.Errorf("stream: checkpoint places two colors on location %d", loc)
			}
			seenLoc[loc] = true
		}
		st.colorLocs[cl.Color] = append([]int(nil), cl.Locs...)
	}
	for _, loc := range st.freeLocs {
		if loc < 0 || loc >= cp.Resources {
			return nil, fmt.Errorf("stream: checkpoint frees location %d of %d", loc, cp.Resources)
		}
		if seenLoc[loc] {
			return nil, fmt.Errorf("stream: checkpoint lists location %d as both cached and free", loc)
		}
		seenLoc[loc] = true
	}
	for loc, used := range seenLoc {
		if !used {
			return nil, fmt.Errorf("stream: checkpoint leaves location %d neither cached nor free", loc)
		}
	}
	tracker, err := core.RestoreTracker(cp.Inner.Tracker)
	if err != nil {
		return nil, fmt.Errorf("stream: restoring checkpoint: %w", err)
	}
	st.tracker = tracker
	for _, sc := range cp.Inner.Subcolors {
		if tracker.DelayBoundOf(sc.Inner) == 0 {
			return nil, fmt.Errorf("stream: checkpoint subcolor %v missing from tracker", sc.Inner)
		}
	}
	return s, nil
}
