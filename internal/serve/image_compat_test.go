package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// State images are compact JSON, but tenant chunks and every older image must
// keep working: a chunk's bytes are its content address, so an encoder change
// that moved them would stop state dirs written by older builds from
// deduplicating, and drain files, dispatcher state and fixtures written
// indented must still restore.

// TestTenantChunkBytesPinned: encodeTenantChunk emits exactly json.Marshal of
// the chunk payload with the indented Snapshot embedded — the formula every
// earlier build wrote — so chunk IDs are unchanged.
func TestTenantChunkBytesPinned(t *testing.T) {
	for _, decisions := range []bool{false, true} {
		for _, seed := range []int64{42, 99} {
			cfg := Config{Shards: 2, Resources: 8, Delta: 4, Watermark: 1 << 16,
				RecordDecisions: decisions, CheckpointDecisions: decisions}
			svc, _, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			srv := httptest.NewServer(svc.Handler())
			driveService(t, NewClient(srv.URL), detFixture(t, seed), 24)
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
					got, err := sh.encodeTenantChunk(tn)
					if err != nil {
						t.Fatal(err)
					}
					tcp, err := sh.checkpointTenant(tn, decisions)
					if err != nil {
						t.Fatal(err)
					}
					if tcp.Snapshot, err = tn.sched.Snapshot(); err != nil {
						t.Fatal(err)
					}
					want, err := json.Marshal(tenantChunkPayload{Round: sh.round, Tenant: tcp})
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("seed %d decisions=%v tenant %s: chunk bytes moved\ngot:  %.200s\nwant: %.200s",
							seed, decisions, name, got, want)
					}
					checked++
				}
			}
			if checked != len(detFixture(t, seed)) {
				t.Fatalf("seed %d: checked %d tenants, want %d", seed, checked, len(detFixture(t, seed)))
			}
		}
	}
}

// TestIndentedHostedImageRestores: a hosted shard image is compact JSON, and
// the same image re-indented — as older builds wrote drain files and
// dispatcher state — opens into a shard whose continuation decisions are
// byte-identical to the live shard's.
func TestIndentedHostedImageRestores(t *testing.T) {
	const cutRound, totalRounds = 13, 40
	cfg := Config{Shards: 1, Resources: 8, Delta: 4, Watermark: 1 << 16,
		RecordDecisions: true, CheckpointDecisions: true, Hosted: true}
	tenants := detFixture(t, 7)
	open := func(image []byte) (*Service, *Client) {
		t.Helper()
		svc, _, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		t.Cleanup(svc.Close)
		if _, err := svc.OpenShard(0, image); err != nil {
			t.Fatalf("OpenShard: %v", err)
		}
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
	live, liveClient := open(nil)
	driveTailTicking(t, liveClient, tenants, 0, cutRound, tickShard0(liveClient))
	image, err := live.SnapshotShard(0)
	if err != nil {
		t.Fatalf("SnapshotShard: %v", err)
	}
	if i := bytes.IndexAny(image, " \n"); i >= 0 {
		t.Fatalf("hosted shard image has whitespace at byte %d of %d", i, len(image))
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, image, "", "  "); err != nil {
		t.Fatal(err)
	}
	_, oldClient := open(indented.Bytes())

	driveTailTicking(t, liveClient, tenants, cutRound, totalRounds, tickShard0(liveClient))
	driveTailTicking(t, oldClient, tenants, cutRound, totalRounds, tickShard0(oldClient))
	for _, tn := range tenants {
		want, err := liveClient.DecisionsRaw(tn.name)
		if err != nil {
			t.Fatalf("live DecisionsRaw(%s): %v", tn.name, err)
		}
		got, err := oldClient.DecisionsRaw(tn.name)
		if err != nil {
			t.Fatalf("restored DecisionsRaw(%s): %v", tn.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("tenant %s: indented image continues differently\n%s", tn.name, excerpt(got, want))
		}
	}
}
