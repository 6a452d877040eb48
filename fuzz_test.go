package rrsched_test

// Fuzz target for the user-reachable checkpoint reader: RestoreStream must
// reject arbitrary and corrupted checkpoint bytes with an error — never a
// panic — and a checkpoint it does accept must yield a scheduler that can
// make progress with work to place.

import (
	"encoding/json"
	"testing"

	"rrsched"
)

func FuzzRestoreStream(f *testing.F) {
	// Seed with a real checkpoint taken mid-run, so the fuzzer starts from
	// the accepted grammar and mutates outward.
	s, err := rrsched.NewStream(4, 8)
	if err != nil {
		f.Fatal(err)
	}
	for r := int64(0); r < 24; r++ {
		// Disjoint color ranges per delay bound: a color's bound is fixed.
		jobs := []rrsched.Job{
			{ID: 2 * r, Color: rrsched.Color(r % 3), Arrival: r, Delay: 4},
			{ID: 2*r + 1, Color: rrsched.Color(10 + r%5), Arrival: r, Delay: 8},
		}
		if _, err := s.Push(r, jobs); err != nil {
			f.Fatal(err)
		}
	}
	snap, err := s.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	// A truncation, a splice, and non-checkpoint bytes.
	f.Add(snap[:len(snap)/2])
	f.Add(append(append([]byte{}, snap[len(snap)/3:]...), snap[:len(snap)/3]...))
	f.Add([]byte(`{"schema":"bogus"}`))
	f.Add([]byte{})
	// Four one-location cached colors at n=4: twice Slots(), which a push
	// with jobs cannot place.
	small, err := rrsched.NewStream(2, 4)
	if err != nil {
		f.Fatal(err)
	}
	var four []rrsched.Job
	for c := 0; c < 4; c++ {
		four = append(four, rrsched.Job{ID: int64(c), Color: rrsched.Color(c), Arrival: 0, Delay: 1})
	}
	if _, err := small.Push(0, four); err != nil {
		f.Fatal(err)
	}
	smallSnap, err := small.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	var doctored map[string]any
	if err := json.Unmarshal(smallSnap, &doctored); err != nil {
		f.Fatal(err)
	}
	var colorLocs, locColor []any
	for c := 0; c < 4; c++ {
		colorLocs = append(colorLocs, map[string]any{"color": c, "locs": []any{c}})
		locColor = append(locColor, c)
	}
	inner := doctored["inner"].(map[string]any)
	inner["color_locs"], inner["loc_color"], inner["free_locs"] = colorLocs, locColor, []any{}
	bad, err := json.Marshal(doctored)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		restored, err := rrsched.RestoreStream(data)
		if err != nil {
			return // rejected gracefully
		}
		// Accepted checkpoints must produce a usable scheduler. Push exactly
		// the next unprocessed round (the checkpoint's "round" field): pushing
		// a later round would make the scheduler catch up one round at a time,
		// which is unbounded work if the fuzzer crafts a huge round value.
		var next struct {
			Round int64 `json:"round"`
		}
		if err := json.Unmarshal(data, &next); err != nil {
			t.Fatalf("accepted checkpoint is not JSON: %v", err)
		}
		// One job, so the round places colors (a fresh color and ID keep the
		// job itself valid against whatever the checkpoint holds).
		job := rrsched.Job{ID: 1 << 40, Color: 1 << 20, Arrival: next.Round, Delay: 1}
		if _, err := restored.Push(next.Round, []rrsched.Job{job}); err != nil {
			return
		}
		// And a round already processed must error, not panic.
		if _, err := restored.Push(next.Round, nil); err == nil {
			t.Fatal("re-pushing a processed round succeeded")
		}
	})
}
