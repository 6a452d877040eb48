package serve

import (
	"bytes"
	"errors"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"rrsched/internal/ckptstore"
	"rrsched/internal/stream"
)

// Tenant state travels as binary records; JSON images of older builds are
// read only by the one-shot converter. A chunk's bytes are its content
// address, so the record format is pinned by a golden fixture, and the
// converter is held to the old build's own images: a hosted image and a
// drained state dir written by the last JSON build live under testdata/.

// TestTenantRecordFixtureBytes: every tenant of a driven service encodes to
// a chunk payload that decodes and re-encodes byte-identically and restores
// its scheduler exactly, and tenant alpha's payload and chunk ID match the
// golden fixture testdata/tenant-alpha.chunk.bin — so chunk IDs move only
// with a deliberate format change.
func TestTenantRecordFixtureBytes(t *testing.T) {
	const fixture, fixtureID = "tenant-alpha.chunk.bin", "eacc87e6df3ffc95"
	cfg := Config{Shards: 2, Resources: 8, Delta: 4, Watermark: 1 << 16,
		RecordDecisions: true, CheckpointDecisions: true}
	svc, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := httptest.NewServer(svc.Handler())
	driveService(t, NewClient(srv.URL), detFixture(t, 42), 24)
	images := make([][]byte, cfg.Shards)
	for i := range images {
		if images[i], err = svc.SnapshotShard(i); err != nil {
			t.Fatalf("SnapshotShard(%d): %v", i, err)
		}
	}
	srv.Close()
	svc.Close()

	checked := 0
	for i, img := range images {
		// A restored, never-started shard is owned by this goroutine.
		sh, err := newShard(i, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sh.restoreShard(img, newHashRing(cfg.Shards)); err != nil {
			t.Fatalf("restoreShard(%d): %v", i, err)
		}
		for _, name := range sh.order {
			tn := sh.tenants[name]
			payload, err := sh.encodeTenantChunk(tn)
			if err != nil {
				t.Fatal(err)
			}
			round, tcp, err := decodeChunkPayload(payload, name, sh.round)
			if err != nil {
				t.Fatalf("tenant %s: %v", name, err)
			}
			if again := appendChunkPayload(nil, round, tcp); !bytes.Equal(again, payload) {
				t.Fatalf("tenant %s: chunk payload re-encodes differently", name)
			}
			want, err := tn.sched.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			sched, err := stream.RestoreState(tcp.State)
			if err != nil {
				t.Fatalf("tenant %s: %v", name, err)
			}
			if got, err := sched.Snapshot(); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("tenant %s: chunk state restores to another scheduler (%v)", name, err)
			}
			if name == "alpha" {
				golden, err := os.ReadFile(filepath.Join("testdata", fixture))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(payload, golden) {
					t.Fatalf("tenant alpha chunk payload moved (%d bytes, fixture %d)", len(payload), len(golden))
				}
				if _, id := ckptstore.EncodeFull(payload); ckptstore.FormatChunkID(id) != fixtureID {
					t.Fatalf("tenant alpha chunk ID %s, pinned %s", ckptstore.FormatChunkID(id), fixtureID)
				}
			}
			checked++
		}
	}
	if checked != len(detFixture(t, 42)) {
		t.Fatalf("checked %d tenants, want %d", checked, len(detFixture(t, 42)))
	}
}

// TestConvertedHostedImageRestores: the indented JSON hosted image the last
// JSON build wrote at round 13 (testdata/v1-hosted-image.json) is refused by
// OpenShard with an error naming the converter; converted, it is byte for
// byte the image this build writes for the same run, and it opens into a
// shard whose continuation decisions are byte-identical to the live shard's.
func TestConvertedHostedImageRestores(t *testing.T) {
	const cutRound, totalRounds = 13, 40
	cfg := Config{Shards: 1, Resources: 8, Delta: 4, Watermark: 1 << 16,
		RecordDecisions: true, CheckpointDecisions: true, Hosted: true}
	tenants := detFixture(t, 7)
	newHosted := func() (*Service, *Client) {
		t.Helper()
		svc, _, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		t.Cleanup(svc.Close)
		srv := httptest.NewServer(svc.Handler())
		t.Cleanup(srv.Close)
		return svc, NewClientPolicy(srv.URL, SingleShot())
	}

	// The one shard is hosted, so each round is a target tick of shard 0.
	tickShard0 := func(c *Client) func(int64) error {
		return func(next int64) error {
			_, err := c.TickShardTo(0, 1, next)
			return err
		}
	}
	live, liveClient := newHosted()
	if _, err := live.OpenShard(0, nil); err != nil {
		t.Fatalf("OpenShard: %v", err)
	}
	driveTailTicking(t, liveClient, tenants, 0, cutRound, tickShard0(liveClient))
	image, err := live.SnapshotShard(0)
	if err != nil {
		t.Fatalf("SnapshotShard: %v", err)
	}

	old, err := os.ReadFile(filepath.Join("testdata", "v1-hosted-image.json"))
	if err != nil {
		t.Fatal(err)
	}
	conv, convClient := newHosted()
	if _, err := conv.OpenShard(0, old); !errors.Is(err, errJSONState) {
		t.Fatalf("OpenShard of a JSON image = %v, want the converter refusal", err)
	}
	converted, err := ConvertImage(old)
	if err != nil {
		t.Fatalf("ConvertImage: %v", err)
	}
	if !bytes.Equal(converted, image) {
		t.Fatalf("converted image (%d bytes) differs from the live image (%d bytes)", len(converted), len(image))
	}
	if _, err := conv.OpenShard(0, converted); err != nil {
		t.Fatalf("OpenShard of the converted image: %v", err)
	}

	driveTailTicking(t, liveClient, tenants, cutRound, totalRounds, tickShard0(liveClient))
	driveTailTicking(t, convClient, tenants, cutRound, totalRounds, tickShard0(convClient))
	for _, tn := range tenants {
		want, err := liveClient.DecisionsRaw(tn.name)
		if err != nil {
			t.Fatalf("live DecisionsRaw(%s): %v", tn.name, err)
		}
		got, err := convClient.DecisionsRaw(tn.name)
		if err != nil {
			t.Fatalf("converted DecisionsRaw(%s): %v", tn.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("tenant %s: converted image continues differently\n%s", tn.name, excerpt(got, want))
		}
	}
}

// TestConvertStateDir: a drained two-shard state dir written by the last JSON
// build at round 17 (testdata/v1-statedir) is refused at boot with an error
// naming the converter; ConvertStateDir rewrites every tenant chunk once (a
// second run converts nothing), and the converted dir restores into a
// service whose full decision history, after finishing the run, is
// byte-identical to an uninterrupted run's.
func TestConvertStateDir(t *testing.T) {
	const cutRound, totalRounds = 17, 45
	tenants := detFixture(t, 42)
	cfg := Config{Shards: 2, Resources: 8, Delta: 4, Watermark: 1 << 16, RecordDecisions: true}

	base, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer base.Close()
	baseSrv := httptest.NewServer(base.Handler())
	defer baseSrv.Close()
	baseClient := NewClient(baseSrv.URL)
	driveService(t, baseClient, tenants, totalRounds)

	cfg.StateDir = t.TempDir()
	copyTree(t, filepath.Join("testdata", "v1-statedir"), cfg.StateDir)
	if _, _, err := New(cfg); !errors.Is(err, errJSONState) {
		t.Fatalf("boot on a JSON state dir = %v, want the converter refusal", err)
	}
	n, err := ConvertStateDir(cfg.StateDir)
	if err != nil {
		t.Fatalf("ConvertStateDir: %v", err)
	}
	if n != len(tenants) {
		t.Fatalf("converted %d chunks, want %d", n, len(tenants))
	}
	if n, err := ConvertStateDir(cfg.StateDir); err != nil || n != 0 {
		t.Fatalf("second ConvertStateDir = %d, %v; want 0, nil", n, err)
	}

	svc, restored, err := New(cfg)
	if err != nil {
		t.Fatalf("boot on the converted dir: %v", err)
	}
	defer svc.Close()
	if restored != len(tenants) || svc.Round() != cutRound {
		t.Fatalf("restored %d tenants at round %d, want %d at %d", restored, svc.Round(), len(tenants), cutRound)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)
	driveTail(t, client, tenants, cutRound, totalRounds)
	for _, tn := range tenants {
		want, err := baseClient.DecisionsRaw(tn.name)
		if err != nil {
			t.Fatalf("baseline DecisionsRaw(%s): %v", tn.name, err)
		}
		got, err := client.DecisionsRaw(tn.name)
		if err != nil {
			t.Fatalf("converted DecisionsRaw(%s): %v", tn.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("tenant %s: converted state dir continues differently\n%s", tn.name, excerpt(got, want))
		}
	}
}

// copyTree copies the files under src into dst, keeping the fixture in
// testdata pristine.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(dst, filepath.Dir(rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying %s: %v", src, err)
	}
}
