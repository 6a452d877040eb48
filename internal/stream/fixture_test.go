package stream

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"rrsched/internal/model"
)

// The after-burst fixture pins the checkpoint format and the decisions of a
// tenant that once sent a large single-colour burst. The burst leaves
// hundreds of dormant Distribute subcolours behind; a scheduler that skips
// them per round must still serialize them identically (the checkpoint
// store's delta chunks and dedup depend on canonical bytes) and must resume
// an old snapshot into the same decisions.
//
// testdata/after-burst.snapshot.json is the Snapshot taken after pushing
// rounds [0, fixtureSnapRound) of fixturePushes, and
// testdata/after-burst.decisions.json holds the decisions of the next
// fixtureTailRounds rounds, both written by the full-scan scheduler that
// preceded the deadline-indexed drop loop. Do not regenerate them with the
// current code: their point is to be an independent record.
const (
	fixtureBurstRound = 16
	fixtureBurstJobs  = 5000
	fixtureBurstColor = model.Color(9)
	fixtureBurstDelay = 16
	// The burst's inner jobs are released at round 24 with deadline 32, so
	// every burst subcolour is dormant from round 32; the snapshot is taken
	// 40 rounds later.
	fixtureSnapRound  = 72
	fixtureTailRounds = 64
)

// fixtureDelays are the steady colours' delay bounds: powers of two and
// non-powers, so their inner delays and release rounds differ.
var fixtureDelays = []int64{3, 5, 8, 20}

// fixturePushes returns the arrivals of rounds [0, fixtureSnapRound +
// fixtureTailRounds): 0 to 2 jobs per steady colour per round from a fixed
// xorshift stream, plus the burst.
func fixturePushes() [][]model.Job {
	rounds := fixtureSnapRound + fixtureTailRounds
	out := make([][]model.Job, rounds)
	x := uint64(0x9e3779b97f4a7c15)
	id := int64(0)
	for r := 0; r < rounds; r++ {
		for c, d := range fixtureDelays {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			for k := uint64(0); k < x%3; k++ {
				out[r] = append(out[r], model.Job{ID: id, Color: model.Color(c), Arrival: int64(r), Delay: d})
				id++
			}
		}
		if r == fixtureBurstRound {
			for k := 0; k < fixtureBurstJobs; k++ {
				out[r] = append(out[r], model.Job{ID: id, Color: fixtureBurstColor, Arrival: int64(r), Delay: fixtureBurstDelay})
				id++
			}
		}
	}
	return out
}

func fixtureConfig() Config { return Config{Delta: 4, Resources: 8} }

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	return data
}

// TestAfterBurstFixtureSnapshotBytes: the current scheduler, fed the
// fixture's pushes, must produce the fixture snapshot byte for byte.
func TestAfterBurstFixtureSnapshotBytes(t *testing.T) {
	s, err := New(fixtureConfig())
	if err != nil {
		t.Fatal(err)
	}
	pushes := fixturePushes()
	for r := 0; r < fixtureSnapRound; r++ {
		if _, err := s.Push(int64(r), pushes[r]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := readFixture(t, "after-burst.snapshot.json")
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot differs from the fixture (%d bytes vs %d)", len(got), len(want))
	}
}

// TestAfterBurstFixtureContinuation: restoring the fixture snapshot and
// pushing the tail rounds must reproduce the recorded decisions byte for
// byte, and so must the uninterrupted run.
func TestAfterBurstFixtureContinuation(t *testing.T) {
	want := readFixture(t, "after-burst.decisions.json")
	pushes := fixturePushes()
	tail := func(s *Scheduler) []byte {
		t.Helper()
		decs := make([]Decision, 0, fixtureTailRounds)
		for r := fixtureSnapRound; r < len(pushes); r++ {
			dec, err := s.Push(int64(r), pushes[r])
			if err != nil {
				t.Fatal(err)
			}
			decs = append(decs, dec)
		}
		b, err := json.MarshalIndent(decs, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	restored, err := Restore(readFixture(t, "after-burst.snapshot.json"))
	if err != nil {
		t.Fatalf("restoring fixture: %v", err)
	}
	if got := tail(restored); !bytes.Equal(got, want) {
		t.Fatal("decisions after restoring the fixture differ from the recorded ones")
	}

	live, err := New(fixtureConfig())
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < fixtureSnapRound; r++ {
		if _, err := live.Push(int64(r), pushes[r]); err != nil {
			t.Fatal(err)
		}
	}
	if got := tail(live); !bytes.Equal(got, want) {
		t.Fatal("uninterrupted decisions differ from the recorded ones")
	}
}
