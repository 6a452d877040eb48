package perf

import (
	"strings"
	"testing"
)

// mustScenario returns the named scenario from the matrix.
func mustScenario(t *testing.T, name string) Scenario {
	t.Helper()
	for _, s := range Scenarios() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("scenario %q not in the matrix", name)
	return Scenario{}
}

// TestCkptScenariosRegistered pins the checkpoint-store rows of the matrix:
// the full/delta cut pair at both tenant counts and dirty fractions, the
// fault-in row, and the manifest codec row.
func TestCkptScenariosRegistered(t *testing.T) {
	want := []string{
		"ckpt/cut/full/n8", "ckpt/cut/full/n512",
		"ckpt/cut/delta/n8/dirty1", "ckpt/cut/delta/n8/dirty100",
		"ckpt/cut/delta/n512/dirty1", "ckpt/cut/delta/n512/dirty100",
		"ckpt/manifest/n8", "ckpt/manifest/n512",
		"ckpt/faultin/chain4",
		"ckpt/evict/mem", "ckpt/evict/disk",
	}
	for _, name := range want {
		s := mustScenario(t, name)
		if s.Doc == "" || s.Rounds < 1 {
			t.Errorf("%s: doc %q rounds %d", name, s.Doc, s.Rounds)
		}
	}
}

// TestCkptScenariosRun smoke-runs every checkpoint row single-shot; the op
// closures must be re-runnable (Measure repeats them to convergence).
func TestCkptScenariosRun(t *testing.T) {
	for _, s := range Scenarios() {
		if !strings.HasPrefix(s.Name, "ckpt/") {
			continue
		}
		op, err := s.Setup()
		if err != nil {
			t.Fatalf("%s: setup: %v", s.Name, err)
		}
		for i := 0; i < 3; i++ {
			if err := op(); err != nil {
				t.Fatalf("%s: op run %d: %v", s.Name, i, err)
			}
		}
		s.teardown()
	}
}

// TestDeltaCutBeatsFullCutAtLowDirty is the headline claim of the
// incremental checkpoint store, asserted: with 1% of 512 tenants dirty, a
// delta cut must be at least 5x faster than chunking the shard from
// scratch. The measured ratio is ~15-20x (the delta cut still pays the full
// manifest encode, which bounds it), so the 5x floor holds on any hardware;
// -short skips the two 1-second measurements.
func TestDeltaCutBeatsFullCutAtLowDirty(t *testing.T) {
	if testing.Short() {
		t.Skip("two benchmark measurements; skipped under -short")
	}
	full, err := Measure(mustScenario(t, "ckpt/cut/full/n512"))
	if err != nil {
		t.Fatalf("measuring full cut: %v", err)
	}
	delta, err := Measure(mustScenario(t, "ckpt/cut/delta/n512/dirty1"))
	if err != nil {
		t.Fatalf("measuring delta cut: %v", err)
	}
	if full.NsPerRound <= 0 || delta.NsPerRound <= 0 {
		t.Fatalf("non-positive figures: full=%v delta=%v", full.NsPerRound, delta.NsPerRound)
	}
	ratio := full.NsPerRound / delta.NsPerRound
	t.Logf("full cut %.1f ns/tenant, delta cut (1%% dirty) %.1f ns/tenant: %.1fx", full.NsPerRound, delta.NsPerRound, ratio)
	if ratio < 5 {
		t.Fatalf("delta cut at 1%% dirty is only %.2fx faster than a full cut, want >= 5x", ratio)
	}
}

// TestEvictCycleDiskWithin4xOfMem gates the disk chunk store's file I/O: one
// evict/fault-in cycle against a temp-dir store must stay within 4x of the
// same cycle on the in-memory pool. The disk cycle adds one pack append and a
// ReadAt per chunk read to the pool's codec work (about 2x on a 2-vCPU VM);
// a file create and rename per chunk measured 18-33x there. -short skips the
// two 1-second measurements.
func TestEvictCycleDiskWithin4xOfMem(t *testing.T) {
	if testing.Short() {
		t.Skip("two benchmark measurements; skipped under -short")
	}
	mem, err := Measure(mustScenario(t, "ckpt/evict/mem"))
	if err != nil {
		t.Fatalf("measuring the pool cycle: %v", err)
	}
	disk, err := Measure(mustScenario(t, "ckpt/evict/disk"))
	if err != nil {
		t.Fatalf("measuring the disk cycle: %v", err)
	}
	if mem.NsPerRound <= 0 || disk.NsPerRound <= 0 {
		t.Fatalf("non-positive figures: mem=%v disk=%v", mem.NsPerRound, disk.NsPerRound)
	}
	ratio := disk.NsPerRound / mem.NsPerRound
	t.Logf("evict/fault-in cycle: pool %.0f ns, disk %.0f ns: %.2fx", mem.NsPerRound, disk.NsPerRound, ratio)
	if ratio > 4 {
		t.Fatalf("the disk cycle costs %.2fx the pool cycle, want <= 4x", ratio)
	}
}
