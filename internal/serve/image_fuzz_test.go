package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"rrsched/internal/stream"
)

// FuzzShardImage holds the shard image and tenant record decoders to their
// contract: arbitrary bytes never panic; an image or record that decodes
// re-encodes byte-identically; and an image that restores into a shard cuts
// back to exactly its own bytes, with every tenant's JSON Snapshot restoring
// (through the stream JSON oracle) to the state its record carried.
func FuzzShardImage(f *testing.F) {
	// The last JSON build's hosted image, converted, and its truncations.
	old, err := os.ReadFile(filepath.Join("testdata", "v1-hosted-image.json"))
	if err != nil {
		f.Fatal(err)
	}
	image, err := ConvertImage(old)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(image)
	for _, cut := range []int{3, 9, len(image) / 2, len(image) - 1} {
		f.Add(image[:cut])
	}
	// Empty images, converted from the JSON seeds of FuzzPlacementEpoch.
	for _, js := range []string{
		`{"schema":"rrserve-state/v1","shard":0,"shards":1,"round":0,"placement_epoch":5}`,
		`{"schema":"rrserve-state/v1","shard":0,"shards":2,"round":0}`,
	} {
		empty, err := ConvertImage([]byte(js))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(empty)
	}
	// One tenant whose state caches four colors on one location each at
	// n=4 — twice Slots() — which the stream decoder must refuse.
	doctored, err := os.ReadFile(filepath.Join("testdata", "doctored-cached-colors.state.bin"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(appendShardImage(nil, &shardCheckpoint{Shards: 1, Round: 1,
		Records: [][]byte{appendRecord(nil, &tenantCheckpoint{Name: "alpha", State: doctored})}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := decodeShardCheckpoint(data)
		if err != nil {
			return // rejected gracefully
		}
		if again := appendShardImage(nil, cp); !bytes.Equal(again, data) {
			t.Fatalf("accepted image re-encodes differently\nin:  %x\nout: %x", data, again)
		}
		records := make(map[string]*tenantCheckpoint, len(cp.Records))
		for i, rec := range cp.Records {
			tcp, err := decodeRecord(rec)
			if err != nil {
				continue
			}
			if again := appendRecord(nil, tcp); !bytes.Equal(again, rec) {
				t.Fatalf("record %d re-encodes differently\nin:  %x\nout: %x", i, rec, again)
			}
			records[tcp.Name] = tcp
		}
		if cp.Shards > 16 {
			return // restoring needs a shard of that pool; keep the harness small
		}
		cfg := Config{Shards: cp.Shards, Resources: 8, Delta: 4, Watermark: 1 << 16,
			RecordDecisions: true, CheckpointDecisions: true}
		sh, err := newShard(cp.Shard, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sh.restoreShard(data, newHashRing(cfg.Shards)); err != nil {
			return
		}
		cut, err := sh.checkpoint()
		if err != nil {
			t.Fatalf("cutting a restored shard: %v", err)
		}
		if !bytes.Equal(cut, data) {
			t.Fatalf("restored shard cuts to another image\nin:  %x\nout: %x", data, cut)
		}
		for name, tn := range sh.tenants {
			snap, err := tn.sched.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			viaJSON, err := stream.Restore(snap)
			if err != nil {
				t.Fatalf("tenant %q: the JSON oracle refuses its Snapshot: %v", name, err)
			}
			state, err := viaJSON.AppendState(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(state, records[name].State) {
				t.Fatalf("tenant %q: Snapshot restores to another state than its record's", name)
			}
		}
	})
}
