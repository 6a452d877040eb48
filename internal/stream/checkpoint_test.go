package stream

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rrsched/internal/model"
	"rrsched/internal/workload"
)

func decisionBytes(t *testing.T, decs []Decision) []byte {
	t.Helper()
	b, err := json.Marshal(decs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSnapshotRestoreDecisionIdentical is the kill-and-restore test: a run
// interrupted by Snapshot/Restore at an arbitrary round must produce a
// decision trace byte-identical to the uninterrupted run on the same pushes.
func TestSnapshotRestoreDecisionIdentical(t *testing.T) {
	seq, err := workload.RandomGeneral(workload.RandomConfig{
		Seed: 7, Delta: 4, Colors: 8, Rounds: 200,
		MinDelayExp: 1, MaxDelayExp: 4, Load: 0.6, ZipfS: 1.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	horizon := seq.Horizon()

	for _, killAt := range []int64{0, 1, 17, 63, 100, horizon - 1} {
		// Uninterrupted run.
		ref, err := New(Config{Delta: seq.Delta(), Resources: 8})
		if err != nil {
			t.Fatal(err)
		}
		var refDecs []Decision
		for r := int64(0); r <= horizon; r++ {
			dec, err := ref.Push(r, seq.Request(r))
			if err != nil {
				t.Fatal(err)
			}
			refDecs = append(refDecs, dec)
		}

		// Interrupted run: push to killAt, snapshot, discard the scheduler
		// ("kill"), restore, and continue.
		a, err := New(Config{Delta: seq.Delta(), Resources: 8})
		if err != nil {
			t.Fatal(err)
		}
		var decs []Decision
		for r := int64(0); r <= killAt; r++ {
			dec, err := a.Push(r, seq.Request(r))
			if err != nil {
				t.Fatal(err)
			}
			decs = append(decs, dec)
		}
		snap, err := a.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		// The compact image is a second restore input: Snapshot must be
		// its indented view, and both must resume identically.
		compact, err := a.AppendSnapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(indentJSON(t, compact), snap) {
			t.Fatalf("kill at %d: Snapshot is not the indented compact image", killAt)
		}
		a = nil
		b, err := Restore(snap)
		if err != nil {
			t.Fatalf("kill at %d: restore: %v", killAt, err)
		}
		c, err := Restore(compact)
		if err != nil {
			t.Fatalf("kill at %d: restore compact: %v", killAt, err)
		}
		compactDecs := append([]Decision(nil), decs...)
		for r := killAt + 1; r <= horizon; r++ {
			dec, err := b.Push(r, seq.Request(r))
			if err != nil {
				t.Fatalf("kill at %d: push round %d: %v", killAt, r, err)
			}
			decs = append(decs, dec)
			if dec, err = c.Push(r, seq.Request(r)); err != nil {
				t.Fatalf("kill at %d: compact push round %d: %v", killAt, r, err)
			}
			compactDecs = append(compactDecs, dec)
		}

		if !bytes.Equal(decisionBytes(t, refDecs), decisionBytes(t, decs)) {
			t.Fatalf("kill at %d: resumed decision trace differs from uninterrupted run", killAt)
		}
		if !bytes.Equal(decisionBytes(t, decs), decisionBytes(t, compactDecs)) {
			t.Fatalf("kill at %d: resuming the compact image differs from resuming Snapshot", killAt)
		}
		if ref.Cost() != b.Cost() {
			t.Fatalf("kill at %d: resumed cost %v != uninterrupted %v", killAt, ref.Cost(), b.Cost())
		}
		if ref.Executed() != b.Executed() || ref.Dropped() != b.Dropped() {
			t.Fatalf("kill at %d: resumed counters (%d,%d) != uninterrupted (%d,%d)",
				killAt, b.Executed(), b.Dropped(), ref.Executed(), ref.Dropped())
		}

		// The final states must also snapshot identically.
		refSnap, err := ref.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		endSnap, err := b.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refSnap, endSnap) {
			t.Fatalf("kill at %d: final snapshots differ", killAt)
		}
	}
}

func indentJSON(t *testing.T, compact []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Indent(&buf, compact, "", "  "); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAfterBurstFixtureCompactImage: a scheduler restored from the indented
// after-burst fixture re-encodes to a compact image without whitespace whose
// indented form is the fixture itself, AppendSnapshot really appends, and
// restoring the compact image or Snapshot continues into the recorded
// decisions alike.
func TestAfterBurstFixtureCompactImage(t *testing.T) {
	fixture := readFixture(t, "after-burst.snapshot.json")
	s, err := Restore(fixture)
	if err != nil {
		t.Fatalf("restoring fixture: %v", err)
	}
	compact, err := s.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if i := bytes.IndexAny(compact, " \n"); i >= 0 {
		t.Fatalf("compact image has whitespace at byte %d of %d", i, len(compact))
	}
	if !bytes.Equal(indentJSON(t, compact), fixture) {
		t.Fatal("indented compact image differs from the fixture")
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, fixture) {
		t.Fatal("Snapshot of the restored fixture differs from the fixture")
	}
	prefixed, err := s.AppendSnapshot([]byte("image:"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prefixed, append([]byte("image:"), compact...)) {
		t.Fatal("AppendSnapshot does not append the image to dst")
	}

	want := readFixture(t, "after-burst.decisions.json")
	pushes := fixturePushes()
	for name, image := range map[string][]byte{"compact": compact, "Snapshot": snap} {
		r, err := Restore(image)
		if err != nil {
			t.Fatalf("restoring the %s image: %v", name, err)
		}
		decs := make([]Decision, 0, fixtureTailRounds)
		for round := fixtureSnapRound; round < len(pushes); round++ {
			dec, err := r.Push(int64(round), pushes[round])
			if err != nil {
				t.Fatal(err)
			}
			decs = append(decs, dec)
		}
		got, err := json.MarshalIndent(decs, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("decisions after restoring the %s image differ from the recorded ones", name)
		}
	}
}

// TestRestoreAtDeadlineBoundaryDropsIdentical pins the deadline-drop index
// across a checkpoint: an overloaded color whose jobs must expire is pushed,
// the scheduler is killed and restored right around the deadline rounds, and
// the resumed run must drop exactly the same jobs as the uninterrupted one —
// i.e. the restored engine rebuilds its deadline buckets, it does not lose
// or duplicate pending expirations.
func TestRestoreAtDeadlineBoundaryDropsIdentical(t *testing.T) {
	const (
		delta   = 4
		n       = 8
		rounds  = 48
		perPush = 40 // far beyond n per delay window: guaranteed drops
	)
	pushes := make([][]model.Job, rounds)
	id := int64(0)
	for r := int64(0); r < rounds; r += 8 {
		for i := 0; i < perPush; i++ {
			pushes[r] = append(pushes[r], model.Job{ID: id, Color: 1, Arrival: r, Delay: 8})
			id++
		}
	}

	ref, err := New(Config{Delta: delta, Resources: n})
	if err != nil {
		t.Fatal(err)
	}
	var refDecs []Decision
	for r := int64(0); r < rounds; r++ {
		dec, err := ref.Push(r, pushes[r])
		if err != nil {
			t.Fatal(err)
		}
		refDecs = append(refDecs, dec)
	}
	if _, err := ref.Drain(); err != nil {
		t.Fatal(err)
	}
	if ref.Dropped() == 0 {
		t.Fatal("overload scenario dropped nothing; the test exercises no deadlines")
	}

	// Kill/restore straddling the first deadline rounds (jobs of the round-0
	// burst expire at round 8) and a later steady-state boundary.
	for _, killAt := range []int64{6, 7, 8, 9, 23} {
		s, err := New(Config{Delta: delta, Resources: n})
		if err != nil {
			t.Fatal(err)
		}
		var decs []Decision
		for r := int64(0); r <= killAt; r++ {
			dec, err := s.Push(r, pushes[r])
			if err != nil {
				t.Fatal(err)
			}
			decs = append(decs, dec)
		}
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(snap)
		if err != nil {
			t.Fatalf("kill at %d: %v", killAt, err)
		}
		for r := killAt + 1; r < rounds; r++ {
			dec, err := restored.Push(r, pushes[r])
			if err != nil {
				t.Fatalf("kill at %d: push round %d: %v", killAt, r, err)
			}
			decs = append(decs, dec)
		}
		if _, err := restored.Drain(); err != nil {
			t.Fatal(err)
		}
		if restored.Dropped() != ref.Dropped() || restored.Executed() != ref.Executed() {
			t.Errorf("kill at %d: resumed (exec %d, drop %d) != uninterrupted (exec %d, drop %d)",
				killAt, restored.Executed(), restored.Dropped(), ref.Executed(), ref.Dropped())
		}
		if !bytes.Equal(decisionBytes(t, refDecs), decisionBytes(t, decs)) {
			t.Errorf("kill at %d: decision trace differs across the deadline boundary", killAt)
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	seq, err := workload.RandomGeneral(workload.RandomConfig{
		Seed: 3, Delta: 3, Colors: 5, Rounds: 64,
		MinDelayExp: 1, MaxDelayExp: 3, Load: 0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := pushSequence(t, seq, 8)
	a, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two snapshots of the same scheduler differ")
	}
}

func TestRestoreRejectsCorruptCheckpoints(t *testing.T) {
	s, err := New(Config{Delta: 2, Resources: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(0, []model.Job{{ID: 0, Color: 0, Arrival: 0, Delay: 2}}); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(snap); err != nil {
		t.Fatalf("round-trip of a valid snapshot failed: %v", err)
	}

	corrupt := func(mutate func(map[string]any)) []byte {
		var m map[string]any
		if err := json.Unmarshal(snap, &m); err != nil {
			t.Fatal(err)
		}
		mutate(m)
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"truncated", snap[:len(snap)/2], "decoding checkpoint"},
		{"not json", []byte("ceci n'est pas un checkpoint"), "decoding checkpoint"},
		{"bad version", corrupt(func(m map[string]any) { m["version"] = 99.0 }), "version"},
		{"bad delta", corrupt(func(m map[string]any) { m["delta"] = -1.0 }), "Delta"},
		{"bad resources", corrupt(func(m map[string]any) { m["resources"] = 3.0 }), "multiple of 4"},
		{"negative round", corrupt(func(m map[string]any) { m["round"] = -5.0 }), "negative round"},
		{"accounting", corrupt(func(m map[string]any) { m["executed"] = 100.0 }), "accounting"},
		{"loc mismatch", corrupt(func(m map[string]any) { m["loc_color"] = []any{} }), "locations"},
		{"no tracker", corrupt(func(m map[string]any) {
			inner := m["inner"].(map[string]any)
			inner["tracker"] = nil
		}), "tracker"},
	}
	for _, c := range cases {
		if _, err := Restore(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Restore = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

func TestPushRejectsDuplicateAndLateJobs(t *testing.T) {
	s, err := New(Config{Delta: 2, Resources: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(0, []model.Job{
		{ID: 0, Color: 0, Arrival: 0, Delay: 8},
		{ID: 0, Color: 0, Arrival: 0, Delay: 8},
	}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("same-batch duplicate accepted: %v", err)
	}
	if _, err := s.Push(0, []model.Job{{ID: 0, Color: 0, Arrival: 0, Delay: 8}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(1, []model.Job{{ID: 0, Color: 0, Arrival: 1, Delay: 8}}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("in-flight duplicate accepted: %v", err)
	}
	if _, err := s.Push(0, nil); err == nil || !strings.Contains(err.Error(), "already processed") {
		t.Errorf("late push accepted: %v", err)
	}
}

// TestRestoreRejectsUnknownInnerColors: inner colors are dense indices into
// the subcolor table, so pending jobs or a location naming a color outside
// it, or a color's pending jobs listed twice, are corruption.
func TestRestoreRejectsUnknownInnerColors(t *testing.T) {
	s, err := New(Config{Delta: 2, Resources: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Delay 1 releases at once, creating inner color 0.
	if _, err := s.Push(0, []model.Job{{ID: 0, Color: 0, Arrival: 0, Delay: 1}, {ID: 1, Color: 0, Arrival: 0, Delay: 1}}); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(inner map[string]any)) []byte {
		var m map[string]any
		if err := json.Unmarshal(snap, &m); err != nil {
			t.Fatal(err)
		}
		mutate(m["inner"].(map[string]any))
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	pending := func(c float64) map[string]any { return map[string]any{"color": c, "deadlines": []any{8.0}} }
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"pending color", corrupt(func(in map[string]any) { in["pending"] = []any{pending(5)} }), "unknown inner color"},
		{"repeated pending", corrupt(func(in map[string]any) { in["pending"] = []any{pending(0), pending(0)} }), "repeats inner pending"},
		{"location color", corrupt(func(in map[string]any) { in["loc_color"] = []any{7.0, -1.0, -1.0, -1.0} }), "unknown inner color"},
	}
	for _, c := range cases {
		if _, err := Restore(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Restore = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

// TestRestoredPastDeadlinesDropFirstRound: an inner deadline a checkpoint
// carries from before its round is dropped in the first round after
// restore, as a scan of every queue would.
func TestRestoredPastDeadlinesDropFirstRound(t *testing.T) {
	s, err := New(Config{Delta: 2, Resources: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The job is released at round 4 as inner color 0.
	if _, err := s.Push(0, []model.Job{{ID: 0, Color: 0, Arrival: 0, Delay: 8}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(4, nil); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(snap, &m); err != nil {
		t.Fatal(err)
	}
	m["inner"].(map[string]any)["pending"] = []any{map[string]any{"color": 0.0, "deadlines": []any{1.0, 3.0, 9.0}}}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	restored.inner.round(5, nil)
	if q := &restored.inner.pending[0]; q.Len() > 1 || (q.Len() == 1 && q.Peek() != 9) {
		t.Fatalf("inner queue after the first round holds %v, want at most the deadline-9 job", q.Items())
	}
}
