package serve

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeReshard pins the reshard request decoder on arbitrary bytes:
// never panics, and anything it accepts reaches the encode→decode fixed
// point, matching the contract of every other decoder on the wire.
func FuzzDecodeReshard(f *testing.F) {
	seed := [][]byte{
		[]byte(""),
		[]byte("{}"),
		[]byte("null"),
		[]byte(`{"schema":"rrserve-reshard/v1","shards":8}`),
		[]byte(`{"schema":"rrserve-reshard/v1","shards":0}`),
		[]byte(`{"schema":"rrserve-reshard/v1","shards":4097}`),
		[]byte(`{"schema":"rrserve-reshard/v2","shards":8}`),
		[]byte(`{"shards":8}`),
	}
	for _, s := range seed {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeReshard(data)
		if err != nil {
			return
		}
		enc, err := EncodeReshard(req)
		if err != nil {
			t.Fatalf("decoded reshard request fails to encode: %v\ninput: %q", err, data)
		}
		again, err := DecodeReshard(enc)
		if err != nil {
			t.Fatalf("canonical encoding fails to decode: %v\nencoded: %q", err, enc)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("round trip changed the request:\nfirst:  %+v\nsecond: %+v", req, again)
		}
		enc2, err := EncodeReshard(again)
		if err != nil {
			t.Fatalf("re-encoding canonical request: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("canonical reshard bytes are not a fixed point")
		}
	})
}

// FuzzPlacementEpoch feeds arbitrary bytes through the checkpoint reshard
// transform: it must never panic, and whenever it accepts a single-shard
// checkpoint it must preserve the tenant set exactly, route every tenant
// where the target ring says, and bump the placement epoch by one — on any
// shard count the fuzzer picks.
func FuzzPlacementEpoch(f *testing.F) {
	f.Add([]byte(""), uint8(0))
	f.Add([]byte("{}"), uint8(3))
	image := func(shards int, round, epoch int64, names ...string) []byte {
		cp := shardCheckpoint{Shards: shards, Round: round, PlacementEpoch: epoch}
		for _, n := range names {
			cp.Records = append(cp.Records, appendRecord(nil, &tenantCheckpoint{Name: n}))
		}
		return appendShardImage(nil, &cp)
	}
	f.Add(image(1, 2, 0, "alpha"), uint8(4))
	f.Add(image(1, 0, 5), uint8(7))
	f.Add(image(2, 0, 0), uint8(1))
	f.Add(image(1, 3, 1, "alpha", "beta", "gamma"), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		newShards := 1 + int(n)%8
		out, err := ReshardCheckpoints([][]byte{data}, newShards)
		if err != nil {
			return
		}
		if len(out) != newShards {
			t.Fatalf("transform produced %d shards, want %d", len(out), newShards)
		}
		in, err := decodeShardCheckpoint(data)
		if err != nil {
			t.Fatalf("transform accepted a checkpoint its own decoder rejects: %v", err)
		}
		want := map[string]bool{}
		for _, name := range in.Names {
			want[name] = true
		}
		ring := newHashRing(newShards)
		got := map[string]bool{}
		for i, shardData := range out {
			cp, err := decodeShardCheckpoint(shardData)
			if err != nil {
				t.Fatalf("transform output %d fails to decode: %v", i, err)
			}
			if cp.Shard != i || cp.Shards != newShards {
				t.Fatalf("output %d labeled shard %d of %d", i, cp.Shard, cp.Shards)
			}
			if cp.Round != in.Round || cp.PlacementEpoch != in.PlacementEpoch+1 {
				t.Fatalf("output %d: round %d epoch %d, want round %d epoch %d",
					i, cp.Round, cp.PlacementEpoch, in.Round, in.PlacementEpoch+1)
			}
			for _, name := range cp.Names {
				if got[name] {
					t.Fatalf("tenant %q duplicated across outputs", name)
				}
				got[name] = true
				if ring.ShardOf(name) != i {
					t.Fatalf("tenant %q on shard %d, ring says %d", name, i, ring.ShardOf(name))
				}
			}
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("tenant set changed: in %v, out %v", want, got)
		}
	})
}
