package dispatch

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestWireRoundTrips(t *testing.T) {
	reg := &RegisterRequest{Schema: WireSchema, Worker: "w1", Addr: "http://127.0.0.1:9000"}
	data, err := EncodeRegister(reg)
	if err != nil {
		t.Fatalf("EncodeRegister: %v", err)
	}
	reg2, err := DecodeRegister(data)
	if err != nil {
		t.Fatalf("DecodeRegister: %v", err)
	}
	if *reg2 != *reg {
		t.Fatalf("register round trip: %+v != %+v", reg2, reg)
	}

	hb := &HeartbeatRequest{Schema: WireSchema, Worker: "w1", Held: []LeaseInfo{
		{Shard: 0, Epoch: 3},
		{Shard: 2, Epoch: 1},
	}}
	data, err = EncodeHeartbeat(hb)
	if err != nil {
		t.Fatalf("EncodeHeartbeat: %v", err)
	}
	hb2, err := DecodeHeartbeat(data)
	if err != nil {
		t.Fatalf("DecodeHeartbeat: %v", err)
	}
	if hb2.Worker != hb.Worker || len(hb2.Held) != 2 || hb2.Held[1] != hb.Held[1] {
		t.Fatalf("heartbeat round trip: %+v != %+v", hb2, hb)
	}
	// Older workers sent each held lease's round; the key is ignored.
	old, err := DecodeHeartbeat([]byte(`{"schema":"rrdispatch/v1","worker":"w1","held":[{"shard":0,"epoch":3,"round":17}]}`))
	if err != nil || len(old.Held) != 1 || old.Held[0] != hb.Held[0] {
		t.Fatalf("heartbeat with a held round: %+v err=%v", old, err)
	}

	cp := &CheckpointPush{Schema: WireSchema, Worker: "w1", Shard: 1, Epoch: 2, Round: 9,
		Final: true, Data: json.RawMessage(`{"round":9}`)}
	data, err = EncodeCheckpointPush(cp)
	if err != nil {
		t.Fatalf("EncodeCheckpointPush: %v", err)
	}
	cp2, err := DecodeCheckpointPush(data)
	if err != nil {
		t.Fatalf("DecodeCheckpointPush: %v", err)
	}
	if cp2.Worker != cp.Worker || cp2.Shard != cp.Shard || cp2.Epoch != cp.Epoch ||
		cp2.Round != cp.Round || !cp2.Final || !bytes.Equal(cp2.Data, cp.Data) {
		t.Fatalf("checkpoint round trip: %+v != %+v", cp2, cp)
	}
}

func TestWireRejections(t *testing.T) {
	cases := []struct {
		name string
		data string
		dec  func([]byte) error
		want string
	}{
		{"register bad schema", `{"schema":"nope","worker":"w","addr":"a"}`,
			func(b []byte) error { _, err := DecodeRegister(b); return err }, "schema"},
		{"register empty worker", `{"schema":"rrdispatch/v1","worker":"","addr":"a"}`,
			func(b []byte) error { _, err := DecodeRegister(b); return err }, "empty worker"},
		{"register control-byte worker", "{\"schema\":\"rrdispatch/v1\",\"worker\":\"w\\u0001\",\"addr\":\"a\"}",
			func(b []byte) error { _, err := DecodeRegister(b); return err }, "control byte"},
		{"register no addr", `{"schema":"rrdispatch/v1","worker":"w","addr":""}`,
			func(b []byte) error { _, err := DecodeRegister(b); return err }, "no address"},
		{"heartbeat unsorted held", `{"schema":"rrdispatch/v1","worker":"w","held":[{"shard":2},{"shard":1}]}`,
			func(b []byte) error { _, err := DecodeHeartbeat(b); return err }, "strictly increasing"},
		{"heartbeat negative epoch", `{"schema":"rrdispatch/v1","worker":"w","held":[{"shard":0,"epoch":-1}]}`,
			func(b []byte) error { _, err := DecodeHeartbeat(b); return err }, "negative epoch"},
		{"heartbeat shard out of range", `{"schema":"rrdispatch/v1","worker":"w","held":[{"shard":5000}]}`,
			func(b []byte) error { _, err := DecodeHeartbeat(b); return err }, "out of range"},
		{"checkpoint no data", `{"schema":"rrdispatch/v1","worker":"w","shard":0,"epoch":0,"round":0}`,
			func(b []byte) error { _, err := DecodeCheckpointPush(b); return err }, "no data"},
		{"checkpoint negative round", `{"schema":"rrdispatch/v1","worker":"w","shard":0,"round":-1,"data":"e30="}`,
			func(b []byte) error { _, err := DecodeCheckpointPush(b); return err }, "negative round"},
		{"checkpoint not json", `{broken`,
			func(b []byte) error { _, err := DecodeCheckpointPush(b); return err }, "decoding"},
	}
	for _, tc := range cases {
		err := tc.dec([]byte(tc.data))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestServiceConfigValidation(t *testing.T) {
	good := ServiceConfig{Shards: 2, Resources: 8, Delta: 4, Watermark: 64}
	if err := good.validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []ServiceConfig{
		{Shards: 0, Resources: 8, Delta: 4, Watermark: 64},
		{Shards: MaxShards + 1, Resources: 8, Delta: 4, Watermark: 64},
		{Shards: 2, Resources: 6, Delta: 4, Watermark: 64},
		{Shards: 2, Resources: 8, Delta: 0, Watermark: 64},
		{Shards: 2, Resources: 8, Delta: 4, Watermark: 0},
	}
	for i, cfg := range bad {
		if err := cfg.validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// FuzzDecodeDispatch pins that no dispatcher wire decoder panics on arbitrary
// bytes, and that anything a decoder accepts re-encodes to bytes the decoder
// accepts again (round-trip closure).
func FuzzDecodeDispatch(f *testing.F) {
	f.Add([]byte(`{"schema":"rrdispatch/v1","worker":"w1","addr":"http://h:1"}`))
	f.Add([]byte(`{"schema":"rrdispatch/v1","worker":"w1","held":[{"shard":0,"epoch":1,"round":2}]}`))
	f.Add([]byte(`{"schema":"rrdispatch/v1","worker":"w1","shard":0,"epoch":1,"round":2,"data":{"x":1}}`))
	f.Add([]byte(`{broken`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeRegister(data); err == nil {
			enc, err := EncodeRegister(req)
			if err != nil {
				t.Fatalf("accepted register does not re-encode: %v", err)
			}
			if _, err := DecodeRegister(enc); err != nil {
				t.Fatalf("re-encoded register rejected: %v", err)
			}
		}
		if req, err := DecodeHeartbeat(data); err == nil {
			enc, err := EncodeHeartbeat(req)
			if err != nil {
				t.Fatalf("accepted heartbeat does not re-encode: %v", err)
			}
			if _, err := DecodeHeartbeat(enc); err != nil {
				t.Fatalf("re-encoded heartbeat rejected: %v", err)
			}
		}
		if req, err := DecodeCheckpointPush(data); err == nil {
			enc, err := EncodeCheckpointPush(req)
			if err != nil {
				t.Fatalf("accepted checkpoint does not re-encode: %v", err)
			}
			if _, err := DecodeCheckpointPush(enc); err != nil {
				t.Fatalf("re-encoded checkpoint rejected: %v", err)
			}
		}
	})
}
