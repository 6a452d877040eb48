package core

import (
	"fmt"
	"slices"

	"rrsched/internal/model"
)

// TrackerCheckpoint is a serializable image of a Tracker: the full Section
// 3.1 state machine (per-color counters, deadlines, eligibility, timestamp
// wraps) plus the epoch and drop accounting. Colors are sorted so equal
// trackers produce identical checkpoints.
type TrackerCheckpoint struct {
	Delta           int64             `json:"delta"`
	TimestampK      int               `json:"timestamp_k"`
	CompletedEpochs int64             `json:"completed_epochs"`
	EligibleDrops   int64             `json:"eligible_drops"`
	IneligibleDrops int64             `json:"ineligible_drops"`
	Colors          []ColorCheckpoint `json:"colors"`
}

// ColorCheckpoint is the serialized per-color state.
type ColorCheckpoint struct {
	Color    model.Color `json:"color"`
	Delay    int64       `json:"delay"`
	Cnt      int64       `json:"cnt"`
	Deadline int64       `json:"deadline"`
	Eligible bool        `json:"eligible"`
	Wraps    []int64     `json:"wraps,omitempty"`
	Seen     bool        `json:"seen,omitempty"`
}

// Checkpoint captures the tracker's state. Trackers with super-epoch
// accounting enabled are not checkpointable (the streaming scheduler, the
// only checkpointed driver, never enables it).
func (t *Tracker) Checkpoint() (*TrackerCheckpoint, error) {
	if t.super != nil {
		return nil, fmt.Errorf("core: tracker with super-epoch accounting is not checkpointable")
	}
	cp := &TrackerCheckpoint{
		Delta:           t.delta,
		TimestampK:      t.tsK,
		CompletedEpochs: t.completedEpochs,
		EligibleDrops:   t.eligibleDrops,
		IneligibleDrops: t.ineligibleDrops,
	}
	for _, c := range t.order {
		cs := t.states[c]
		cc := ColorCheckpoint{
			Color:    c,
			Delay:    cs.delay,
			Cnt:      cs.cnt,
			Deadline: t.deadline(cs),
			Eligible: cs.eligible,
			Seen:     cs.seen,
		}
		if len(cs.wraps) > 0 {
			cc.Wraps = append([]int64(nil), cs.wraps...)
		}
		cp.Colors = append(cp.Colors, cc)
	}
	return cp, nil
}

// RestoreTracker rebuilds a Tracker from a checkpoint, validating it field by
// field so a corrupted checkpoint is rejected rather than resumed.
func RestoreTracker(cp *TrackerCheckpoint) (*Tracker, error) {
	if cp == nil {
		return nil, fmt.Errorf("core: nil tracker checkpoint")
	}
	if cp.Delta <= 0 {
		return nil, fmt.Errorf("core: checkpoint has non-positive delta %d", cp.Delta)
	}
	if cp.TimestampK < 1 {
		return nil, fmt.Errorf("core: checkpoint has timestamp depth %d", cp.TimestampK)
	}
	if cp.CompletedEpochs < 0 || cp.EligibleDrops < 0 || cp.IneligibleDrops < 0 {
		return nil, fmt.Errorf("core: checkpoint has negative accounting counters")
	}
	t := NewDynamicTracker(cp.Delta)
	t.tsK = cp.TimestampK
	t.completedEpochs = cp.CompletedEpochs
	t.eligibleDrops = cp.EligibleDrops
	t.ineligibleDrops = cp.IneligibleDrops
	for i, cc := range cp.Colors {
		if cc.Color < 0 {
			return nil, fmt.Errorf("core: checkpoint color %d has invalid color %v", i, cc.Color)
		}
		if cc.Delay <= 0 {
			return nil, fmt.Errorf("core: checkpoint color %v has non-positive delay %d", cc.Color, cc.Delay)
		}
		if _, ok := t.states[cc.Color]; ok {
			return nil, fmt.Errorf("core: checkpoint repeats color %v", cc.Color)
		}
		if cc.Cnt < 0 || cc.Cnt >= cp.Delta {
			return nil, fmt.Errorf("core: checkpoint color %v has counter %d outside [0,%d)", cc.Color, cc.Cnt, cp.Delta)
		}
		if len(cc.Wraps) > cp.TimestampK+1 {
			return nil, fmt.Errorf("core: checkpoint color %v has %d wraps (depth %d)", cc.Color, len(cc.Wraps), cp.TimestampK+1)
		}
		for j := 1; j < len(cc.Wraps); j++ {
			if cc.Wraps[j] < cc.Wraps[j-1] {
				return nil, fmt.Errorf("core: checkpoint color %v has unsorted wraps", cc.Color)
			}
		}
		// Register establishes the color's slot in the sorted order index;
		// the restored state then replaces the blank one it created.
		t.Register(cc.Color, cc.Delay)
		t.states[cc.Color] = &colorState{
			delay:    cc.Delay,
			cnt:      cc.Cnt,
			dd:       cc.Deadline,
			eligible: cc.Eligible,
			wraps:    append([]int64(nil), cc.Wraps...),
			seen:     cc.Seen,
		}
		if cc.Eligible {
			t.eligible = append(t.eligible, cc.Color)
		}
		if cc.Seen {
			t.seenColors++
		}
	}
	slices.Sort(t.eligible)
	return t, nil
}
