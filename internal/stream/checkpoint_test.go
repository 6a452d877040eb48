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
		// The binary image is a second restore input: it must carry what
		// Snapshot does, and both must resume identically.
		state, err := a.AppendState(nil)
		if err != nil {
			t.Fatal(err)
		}
		a = nil
		b, err := Restore(snap)
		if err != nil {
			t.Fatalf("kill at %d: restore: %v", killAt, err)
		}
		c, err := RestoreState(state)
		if err != nil {
			t.Fatalf("kill at %d: restore binary image: %v", killAt, err)
		}
		if cSnap, err := c.Snapshot(); err != nil || !bytes.Equal(cSnap, snap) {
			t.Fatalf("kill at %d: the binary image restores to another state (%v)", killAt, err)
		}
		compactDecs := append([]Decision(nil), decs...)
		for r := killAt + 1; r <= horizon; r++ {
			dec, err := b.Push(r, seq.Request(r))
			if err != nil {
				t.Fatalf("kill at %d: push round %d: %v", killAt, r, err)
			}
			decs = append(decs, dec)
			if dec, err = c.Push(r, seq.Request(r)); err != nil {
				t.Fatalf("kill at %d: binary-image push round %d: %v", killAt, r, err)
			}
			compactDecs = append(compactDecs, dec)
		}

		if !bytes.Equal(decisionBytes(t, refDecs), decisionBytes(t, decs)) {
			t.Fatalf("kill at %d: resumed decision trace differs from uninterrupted run", killAt)
		}
		if !bytes.Equal(decisionBytes(t, decs), decisionBytes(t, compactDecs)) {
			t.Fatalf("kill at %d: resuming the binary image differs from resuming Snapshot", killAt)
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

// TestAfterBurstFixtureStateImage: a scheduler restored from the indented
// after-burst fixture encodes to testdata/after-burst.state.bin byte for
// byte, AppendState really appends, the binary fixture restores to the JSON
// fixture's state, and restoring either continues into the recorded
// decisions alike. The binary fixture pins the state image format: chunk
// payloads embed it, so moving its bytes moves every chunk ID.
func TestAfterBurstFixtureStateImage(t *testing.T) {
	fixture := readFixture(t, "after-burst.snapshot.json")
	s, err := Restore(fixture)
	if err != nil {
		t.Fatalf("restoring fixture: %v", err)
	}
	state, err := s.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := readFixture(t, "after-burst.state.bin"); !bytes.Equal(state, want) {
		t.Fatalf("state image differs from the binary fixture (%d bytes vs %d)", len(state), len(want))
	}
	prefixed, err := s.AppendState([]byte("image:"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prefixed, append([]byte("image:"), state...)) {
		t.Fatal("AppendState does not append the image to dst")
	}
	fromState, err := RestoreState(state)
	if err != nil {
		t.Fatalf("restoring the binary fixture: %v", err)
	}
	if snap, err := fromState.Snapshot(); err != nil || !bytes.Equal(snap, fixture) {
		t.Fatalf("Snapshot of the restored binary fixture differs from the JSON fixture (%v)", err)
	}

	want := readFixture(t, "after-burst.decisions.json")
	pushes := fixturePushes()
	for name, restore := range map[string]func() (*Scheduler, error){
		"binary": func() (*Scheduler, error) { return RestoreState(state) },
		"JSON":   func() (*Scheduler, error) { return Restore(fixture) },
	} {
		r, err := restore()
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

// stateOf converts a JSON image, doctored or not, into the binary image of
// the same fields without validating it, so a refusal test can put one
// corruption to both decoders. ok is false when the bytes are not JSON.
func stateOf(data []byte) (state []byte, ok bool) {
	var cp checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, false
	}
	return appendCheckpoint(nil, &cp), true
}

// requireSameRefusal: the binary form of a doctored image must be refused by
// RestoreState with exactly Restore's error, since both end in one
// validation.
func requireSameRefusal(t *testing.T, name string, data []byte) {
	t.Helper()
	state, ok := stateOf(data)
	if !ok {
		return
	}
	_, jerr := Restore(data)
	_, berr := RestoreState(state)
	if jerr == nil || berr == nil || jerr.Error() != berr.Error() {
		t.Errorf("%s: RestoreState = %v, Restore = %v; want the same refusal", name, berr, jerr)
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
		requireSameRefusal(t, c.name, c.data)
	}
	// The parse-level cases have no JSON fields to carry over; their binary
	// analogs are a cut-short image and bytes that are not an image at all.
	state, err := s.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"truncated": state[:len(state)/2],
		"not state": []byte("ceci n'est pas un checkpoint"),
	} {
		if _, err := RestoreState(data); err == nil || !strings.Contains(err.Error(), "decoding checkpoint") {
			t.Errorf("%s: RestoreState = %v, want mention of %q", name, err, "decoding checkpoint")
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
		// Two keys on inner color 0 and none on 1 passes the count check;
		// restored, such a table snapshots nondeterministically.
		{"repeated subcolor", corrupt(func(in map[string]any) {
			in["to_outer"] = []any{0.0, 0.0}
			in["subcolors"] = []any{
				map[string]any{"outer": 0.0, "bucket": 0.0, "inner": 0.0},
				map[string]any{"outer": 0.0, "bucket": 5.0, "inner": 0.0},
			}
		}), "repeats inner subcolor"},
	}
	for _, c := range cases {
		if _, err := Restore(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Restore = %v, want mention of %q", c.name, err, c.want)
		}
		requireSameRefusal(t, c.name, c.data)
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

// TestRestoreRejectsMalformedCachedColors: a cached inner color occupies
// exactly two locations and names an inner color in range. With the check
// that no location is shared, that bounds the cached set by Slots(); an image
// caching four colors on one location each at n=4 would otherwise restore
// and panic with a cache overflow on the next push with jobs.
func TestRestoreRejectsMalformedCachedColors(t *testing.T) {
	s, err := New(Config{Delta: 2, Resources: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Delay 1 releases at once: four colors make four inner colors.
	var jobs []model.Job
	for c := 0; c < 4; c++ {
		jobs = append(jobs, model.Job{ID: int64(c), Color: model.Color(c), Arrival: 0, Delay: 1})
	}
	if _, err := s.Push(0, jobs); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(colorLocs []any) []byte {
		var m map[string]any
		if err := json.Unmarshal(snap, &m); err != nil {
			t.Fatal(err)
		}
		inner := m["inner"].(map[string]any)
		if n := len(inner["to_outer"].([]any)); n < 4 {
			t.Fatalf("fixture has %d inner colors, want at least 4", n)
		}
		inner["color_locs"] = colorLocs
		inner["free_locs"] = []any{}
		inner["loc_color"] = []any{0.0, 1.0, 2.0, 3.0}
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	cached := func(c float64, locs ...float64) map[string]any {
		l := make([]any, len(locs))
		for i, loc := range locs {
			l[i] = loc
		}
		return map[string]any{"color": c, "locs": l}
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"one location each", corrupt([]any{cached(0, 0), cached(1, 1), cached(2, 2), cached(3, 3)}), "want 2"},
		{"three locations", corrupt([]any{cached(0, 0, 1, 2), cached(1, 3)}), "want 2"},
		{"unknown color", corrupt([]any{cached(0, 0, 1), cached(9, 2, 3)}), "unknown inner color"},
		{"negative color", corrupt([]any{cached(-1, 0, 1), cached(1, 2, 3)}), "unknown inner color"},
	}
	for _, c := range cases {
		requireSameRefusal(t, c.name, c.data)
		restored, err := Restore(c.data)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Restore = %v, want mention of %q", c.name, err, c.want)
		}
		if err == nil {
			// An image that slips through panics here with the overflow.
			_, _ = restored.Push(1, []model.Job{{ID: 10, Color: 0, Arrival: 1, Delay: 1}})
		}
	}
}
