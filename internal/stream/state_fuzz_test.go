package stream

import (
	"bytes"
	"encoding/json"
	"testing"

	"rrsched/internal/model"
)

// FuzzRestoreState holds the binary state decoder to its contract: arbitrary
// bytes never panic, and an image it accepts is canonical and faithful — it
// re-encodes byte-identically, and its fields restored through the JSON
// oracle (Restore) give the same Snapshot.
func FuzzRestoreState(f *testing.F) {
	// A mid-run image, its truncations, and the after-burst fixture.
	s, err := New(Config{Delta: 4, Resources: 8})
	if err != nil {
		f.Fatal(err)
	}
	for r := int64(0); r < 24; r++ {
		jobs := []model.Job{
			{ID: 2 * r, Color: model.Color(r % 3), Arrival: r, Delay: 4},
			{ID: 2*r + 1, Color: model.Color(10 + r%5), Arrival: r, Delay: 8},
		}
		if _, err := s.Push(r, jobs); err != nil {
			f.Fatal(err)
		}
	}
	state, err := s.AppendState(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(state)
	for _, cut := range []int{3, len(state) / 3, len(state) / 2, len(state) - 1} {
		f.Add(state[:cut])
	}
	f.Add([]byte{})
	f.Add([]byte("rS\x02"))
	burst, err := Restore(readFixture(f, "after-burst.snapshot.json"))
	if err != nil {
		f.Fatal(err)
	}
	if state, err = burst.AppendState(nil); err != nil {
		f.Fatal(err)
	}
	f.Add(state)

	// Four one-location cached colors at n=4, converted from the doctored
	// JSON image: twice Slots(), which a push with jobs cannot place.
	small, err := New(Config{Delta: 2, Resources: 4})
	if err != nil {
		f.Fatal(err)
	}
	var four []model.Job
	for c := 0; c < 4; c++ {
		four = append(four, model.Job{ID: int64(c), Color: model.Color(c), Arrival: 0, Delay: 1})
	}
	if _, err := small.Push(0, four); err != nil {
		f.Fatal(err)
	}
	cp, err := small.checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	cp.Inner.ColorLocs = nil
	for c := 0; c < 4; c++ {
		cp.Inner.ColorLocs = append(cp.Inner.ColorLocs, colorLocsCP{Color: model.Color(c), Locs: []int{c}})
	}
	cp.Inner.LocColor, cp.Inner.FreeLocs = []model.Color{0, 1, 2, 3}, nil
	f.Add(appendCheckpoint(nil, cp))

	f.Fuzz(func(t *testing.T, data []byte) {
		restored, err := RestoreState(data)
		if err != nil {
			return // rejected gracefully
		}
		again, err := restored.AppendState(nil)
		if err != nil {
			t.Fatalf("re-encoding an accepted image: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted image re-encodes differently\nin:  %x\nout: %x", data, again)
		}
		cp, err := decodeCheckpoint(data)
		if err != nil {
			t.Fatalf("accepted image does not decode: %v", err)
		}
		js, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		viaJSON, err := Restore(js)
		if err != nil {
			t.Fatalf("the JSON oracle refuses an accepted image: %v", err)
		}
		a, err := restored.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		b, err := viaJSON.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatal("binary and JSON restores of one image snapshot differently")
		}
	})
}
