package perf

import (
	"encoding/json"
	"fmt"
	"os"

	"rrsched/internal/ckptstore"
)

// Incremental checkpoint store scenarios: the cost of cutting a shard into
// content-addressed chunks (full cut vs delta cut at a dirty fraction),
// resolving a delta chain back into a payload (the fault-in path), and the
// manifest codec round-trip, all against the in-memory pool; then one
// evict/fault-in cycle against the pool and against the disk store, whose
// difference is the store's file I/O: one pack append per put and one ReadAt
// per chunk read.

// ckptTenantFrame is a synthetic tenant checkpoint payload of realistic
// shape and size (~8 KiB encoded, the order of a warmed tenant with an
// embedded decision stream): identity, counters, and a state vector whose
// tail the dirty-mutation touches, so deltas are small but not empty.
type ckptTenantFrame struct {
	Name     string  `json:"name"`
	Epoch    int64   `json:"epoch"`
	MaxID    int64   `json:"max_id"`
	Rev      int64   `json:"rev"`
	Snapshot []int64 `json:"snapshot"`
}

// ckptPayload builds the encoded frame of one tenant at one revision.
// Deterministic: the same (tenant, rev) always encodes identically.
func ckptPayload(tenant int, rev int64) ([]byte, error) {
	f := ckptTenantFrame{
		Name:     fmt.Sprintf("bench-%05d", tenant),
		Epoch:    int64(tenant % 7),
		MaxID:    128 + rev,
		Rev:      rev,
		Snapshot: make([]int64, 768),
	}
	for i := range f.Snapshot {
		f.Snapshot[i] = int64(tenant)*1000003 + int64(i)
	}
	// A small tail mutation per revision: the delta stays a few ops.
	f.Snapshot[len(f.Snapshot)-1] += rev
	f.Snapshot[len(f.Snapshot)-2] += rev * 3
	return json.Marshal(f)
}

// ckptScenarios returns the checkpoint-store benchmark rows: cut cost at
// n ∈ {8, 512} tenants (full cut, and delta cut at 1% / 100% dirty),
// fault-in chain resolution, the manifest codec round-trip, and the
// evict/fault-in cycle on the in-memory pool and on the disk store.
func ckptScenarios() []Scenario {
	var scs []Scenario
	for _, n := range []int{8, 512} {
		scs = append(scs, ckptFullCutScenario(n))
		for _, dirtyPct := range []int{1, 100} {
			scs = append(scs, ckptDeltaCutScenario(n, dirtyPct))
		}
		scs = append(scs, ckptManifestScenario(n))
	}
	scs = append(scs, ckptFaultInScenario(), ckptEvictScenario(false), ckptEvictScenario(true))
	return scs
}

// ckptFullCutScenario measures the legacy-shaped cut: every tenant frame
// encoded as a fresh full chunk into an empty pool, plus the manifest.
func ckptFullCutScenario(n int) Scenario {
	return Scenario{
		Name:   fmt.Sprintf("ckpt/cut/full/n%d", n),
		Doc:    "full checkpoint cut: every tenant frame chunked from scratch plus the manifest encode (figures per tenant)",
		Rounds: int64(n),
		Setup: func() (func() error, error) {
			payloads := make([][]byte, n)
			for i := range payloads {
				p, err := ckptPayload(i, 0)
				if err != nil {
					return nil, err
				}
				payloads[i] = p
			}
			m := &ckptstore.Manifest{Schema: ckptstore.ManifestSchema, Shards: 1, Round: 1,
				Tenants: make([]ckptstore.TenantRef, n)}
			return func() error {
				pool := ckptstore.NewMemStore(0)
				for i, p := range payloads {
					res, err := pool.Put(p, ckptstore.Ref{})
					if err != nil {
						return err
					}
					m.Tenants[i] = ckptstore.TenantRef{
						Name:  fmt.Sprintf("bench-%05d", i),
						Chunk: ckptstore.FormatChunkID(res.Ref.ID),
					}
				}
				_, err := ckptstore.EncodeManifest(m)
				return err
			}, nil
		},
	}
}

// ckptDeltaCutScenario measures the incremental cut: a warmed pool holds
// every tenant's base frame, and one cut re-chunks only the dirty fraction
// (as deltas against the base) plus the full manifest encode — the steady
// state of the serve tier's per-tick checkpoint.
func ckptDeltaCutScenario(n, dirtyPct int) Scenario {
	dirty := n * dirtyPct / 100
	if dirty < 1 {
		dirty = 1
	}
	return Scenario{
		Name:   fmt.Sprintf("ckpt/cut/delta/n%d/dirty%d", n, dirtyPct),
		Doc:    fmt.Sprintf("delta checkpoint cut over a warmed pool, %d%% of tenants dirty (figures per tenant)", dirtyPct),
		Rounds: int64(n),
		Setup: func() (func() error, error) {
			pool := ckptstore.NewMemStore(0)
			base := make([]ckptstore.Ref, n)
			m := &ckptstore.Manifest{Schema: ckptstore.ManifestSchema, Shards: 1, Round: 2,
				Tenants: make([]ckptstore.TenantRef, n)}
			for i := 0; i < n; i++ {
				p, err := ckptPayload(i, 0)
				if err != nil {
					return nil, err
				}
				res, err := pool.Put(p, ckptstore.Ref{})
				if err != nil {
					return nil, err
				}
				base[i] = res.Ref
				m.Tenants[i] = ckptstore.TenantRef{
					Name:  fmt.Sprintf("bench-%05d", i),
					Chunk: ckptstore.FormatChunkID(res.Ref.ID),
				}
			}
			mutated := make([][]byte, dirty)
			for i := range mutated {
				p, err := ckptPayload(i, 1)
				if err != nil {
					return nil, err
				}
				mutated[i] = p
			}
			return func() error {
				for i := 0; i < dirty; i++ {
					res, err := pool.Put(mutated[i], base[i])
					if err != nil {
						return err
					}
					m.Tenants[i].Chunk = ckptstore.FormatChunkID(res.Ref.ID)
					m.Tenants[i].Chain = res.Ref.Chain
				}
				_, err := ckptstore.EncodeManifest(m)
				return err
			}, nil
		},
	}
}

// ckptManifestScenario measures the manifest codec round-trip at n tenants:
// encode, then decode with full validation.
func ckptManifestScenario(n int) Scenario {
	return Scenario{
		Name:   fmt.Sprintf("ckpt/manifest/n%d", n),
		Doc:    "manifest encode + validating decode round-trip (figures per tenant)",
		Rounds: int64(n),
		Setup: func() (func() error, error) {
			pool := ckptstore.NewMemStore(0)
			m := &ckptstore.Manifest{Schema: ckptstore.ManifestSchema, Shards: 1, Round: 1,
				Tenants: make([]ckptstore.TenantRef, n)}
			for i := 0; i < n; i++ {
				p, err := ckptPayload(i, 0)
				if err != nil {
					return nil, err
				}
				res, err := pool.Put(p, ckptstore.Ref{})
				if err != nil {
					return nil, err
				}
				m.Tenants[i] = ckptstore.TenantRef{
					Name:  fmt.Sprintf("bench-%05d", i),
					Chunk: ckptstore.FormatChunkID(res.Ref.ID),
				}
			}
			return func() error {
				data, err := ckptstore.EncodeManifest(m)
				if err != nil {
					return err
				}
				_, err = ckptstore.DecodeManifest(data)
				return err
			}, nil
		},
	}
}

// ckptFaultInScenario measures paging a cold tenant back in: resolving a
// delta chain at the default depth bound back into a payload and decoding
// the frame, which is the whole fault-in minus the single chunk-file read.
func ckptFaultInScenario() Scenario {
	const chain = 4
	return Scenario{
		Name:   fmt.Sprintf("ckpt/faultin/chain%d", chain),
		Doc:    "cold-tenant fault-in: resolve a delta chain and decode the frame (rounds_per_op = 1: figures are per fault-in)",
		Rounds: 1,
		Setup: func() (func() error, error) {
			pool := ckptstore.NewMemStore(chain + 1)
			ref := ckptstore.Ref{}
			for rev := int64(0); rev <= chain; rev++ {
				p, err := ckptPayload(0, rev)
				if err != nil {
					return nil, err
				}
				res, err := pool.Put(p, ref)
				if err != nil {
					return nil, err
				}
				ref = res.Ref
			}
			if ref.Chain != chain {
				return nil, fmt.Errorf("perf: warmed chain depth %d, want %d", ref.Chain, chain)
			}
			return func() error {
				payload, _, err := pool.Resolve(ref.ID)
				if err != nil {
					return err
				}
				var f ckptTenantFrame
				return json.Unmarshal(payload, &f)
			}, nil
		},
	}
}

// chunkPutResolver is the part of a chunk store one evict/fault-in cycle
// uses; the in-memory pool and the disk store both provide it.
type chunkPutResolver interface {
	Put(payload []byte, parent ckptstore.Ref) (ckptstore.PutResult, error)
	Resolve(id uint64) ([]byte, int, error)
}

// ckptEvictScenario measures one evict/fault-in cycle of a dirty tenant: Put
// its next revision as a delta on its previous chunk (folding into a full
// chunk at the chain bound, as eviction does), then Resolve it back, as the
// next fault-in does. Every revision differs in a fixed-width tag, so every
// put writes new bytes. The disk variant runs against a store in a fresh
// temporary directory, removed at teardown: the real cycle with its syscalls.
func ckptEvictScenario(disk bool) Scenario {
	name, doc := "ckpt/evict/mem", "evict/fault-in cycle on the in-memory pool: delta Put of a dirty tenant plus Resolve (figures per cycle)"
	if disk {
		name, doc = "ckpt/evict/disk", "evict/fault-in cycle on the disk chunk store in a temp dir: delta Put of a dirty tenant plus Resolve, with its file I/O (figures per cycle)"
	}
	var dir string
	var closeStore func() error
	return Scenario{
		Name:   name,
		Doc:    doc,
		Rounds: 1,
		Setup: func() (func() error, error) {
			var store chunkPutResolver = ckptstore.NewMemStore(0)
			if disk {
				var err error
				if dir, err = os.MkdirTemp("", "rrbench-ckpt-evict-"); err != nil {
					return nil, err
				}
				st, err := ckptstore.Open(dir, 0)
				if err != nil {
					return nil, err
				}
				store, closeStore = st, st.Close
			}
			f := ckptTenantFrame{Name: fmt.Sprintf("bench-%016x", 0), Snapshot: make([]int64, 768)}
			for i := range f.Snapshot {
				f.Snapshot[i] = int64(i)
			}
			payload, err := json.Marshal(f)
			if err != nil {
				return nil, err
			}
			tag := len(`{"name":"bench-`)
			var rev uint64
			ref := ckptstore.Ref{}
			return func() error {
				rev++
				copy(payload[tag:tag+16], fmt.Sprintf("%016x", rev))
				res, err := store.Put(payload, ref)
				if err != nil {
					return err
				}
				ref = res.Ref
				_, _, err = store.Resolve(ref.ID)
				return err
			}, nil
		},
		Teardown: func() {
			if closeStore != nil {
				_ = closeStore() // the directory goes next; nothing in it is kept
				closeStore = nil
			}
			if dir != "" {
				_ = os.RemoveAll(dir) // best-effort removal of a benchmark temp dir
				dir = ""
			}
		},
	}
}
