package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"rrsched/internal/atomicio"
	"rrsched/internal/ckptstore"
	"rrsched/internal/stream"
)

// The one-shot converter from the JSON tenant-state format of older builds
// (shard images rrserve-state/v1, JSON chunk payloads) to the binary records
// of this build. It is the only reader of that format: live loaders refuse
// it (errJSONState) and name `rrserve -convert`, so the old format has no
// second live path. Conversion restores every embedded scheduler snapshot
// through stream.Restore, so an image that would not have restored does not
// convert either.

// legacyStateSchema is the schema string of a JSON shard image.
const legacyStateSchema = "rrserve-state/v1"

// legacyImage is a JSON shard image as older builds wrote it.
type legacyImage struct {
	Schema         string         `json:"schema"`
	Shard          int            `json:"shard"`
	Shards         int            `json:"shards"`
	Round          int64          `json:"round"`
	PlacementEpoch int64          `json:"placement_epoch,omitempty"`
	Tenants        []legacyTenant `json:"tenants,omitempty"`
}

// legacyTenant is one tenant of a JSON image or chunk payload.
type legacyTenant struct {
	Name      string            `json:"name"`
	Epoch     int64             `json:"epoch"`
	MaxID     int64             `json:"max_id"`
	Class     string            `json:"class,omitempty"`
	Delays    []colorDelay      `json:"delays,omitempty"`
	Queued    []queuedJob       `json:"queued,omitempty"`
	Inflight  []inflightJob     `json:"inflight,omitempty"`
	Snapshot  json.RawMessage   `json:"snapshot"`
	Decisions []stream.Decision `json:"decisions,omitempty"`
}

// legacyChunk is a JSON tenant chunk payload.
type legacyChunk struct {
	Round  int64        `json:"round"`
	Tenant legacyTenant `json:"tenant"`
}

// record converts a JSON tenant into its binary record.
func (lt *legacyTenant) record() (*tenantCheckpoint, error) {
	sched, err := stream.Restore(lt.Snapshot)
	if err != nil {
		return nil, fmt.Errorf("serve: converting tenant %q: %w", lt.Name, err)
	}
	state, err := sched.AppendState(nil)
	if err != nil {
		return nil, fmt.Errorf("serve: converting tenant %q: %w", lt.Name, err)
	}
	return &tenantCheckpoint{
		Name:      lt.Name,
		Epoch:     lt.Epoch,
		MaxID:     lt.MaxID,
		Class:     lt.Class,
		Delays:    lt.Delays,
		Queued:    lt.Queued,
		Inflight:  lt.Inflight,
		State:     state,
		Decisions: lt.Decisions,
	}, nil
}

// ConvertImage rewrites a JSON shard image (rrserve-state/v1, compact or
// indented) as the binary image of this build.
func ConvertImage(old []byte) ([]byte, error) {
	var li legacyImage
	if err := json.Unmarshal(old, &li); err != nil {
		return nil, fmt.Errorf("serve: decoding JSON shard image: %w", err)
	}
	if li.Schema != legacyStateSchema {
		return nil, fmt.Errorf("serve: JSON shard image schema %q, want %q", li.Schema, legacyStateSchema)
	}
	cp := &shardCheckpoint{Shard: li.Shard, Shards: li.Shards, Round: li.Round, PlacementEpoch: li.PlacementEpoch}
	for i := range li.Tenants {
		tcp, err := li.Tenants[i].record()
		if err != nil {
			return nil, err
		}
		cp.Records = append(cp.Records, appendRecord(nil, tcp))
	}
	return appendShardImage(nil, cp), nil
}

// convertChunk rewrites a JSON tenant chunk payload as a binary one.
func convertChunk(old []byte) ([]byte, error) {
	var lc legacyChunk
	if err := json.Unmarshal(old, &lc); err != nil {
		return nil, fmt.Errorf("serve: decoding JSON tenant chunk: %w", err)
	}
	tcp, err := lc.Tenant.record()
	if err != nil {
		return nil, err
	}
	return appendChunkPayload(nil, lc.Round, tcp), nil
}

// ConvertStateDir rewrites an rrserve state dir written by an older build in
// place: every tenant chunk a manifest references is resolved, converted,
// and stored as a full binary chunk, the manifests are rewritten to the new
// chunk IDs, and the old chunks are collected. Chunks already binary keep
// their ID, so converting twice is harmless. Returns the number of chunks
// converted. Run it on a stopped service only.
func ConvertStateDir(dir string) (int, error) {
	files, err := filepath.Glob(filepath.Join(dir, "manifest-*.json"))
	if err != nil {
		return 0, fmt.Errorf("serve: probing state dir: %w", err)
	}
	if len(files) == 0 {
		return 0, fmt.Errorf("serve: %s holds no manifest-*.json to convert", dir)
	}
	store, err := ckptstore.Open(filepath.Join(dir, "chunks"), 0)
	if err != nil {
		return 0, err
	}
	converted, err := convertChunks(store, files)
	if cerr := store.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("serve: closing chunk store: %w", cerr)
	}
	return converted, err
}

// convertChunks is ConvertStateDir's pass over the manifests.
func convertChunks(store *ckptstore.Store, files []string) (int, error) {
	converted := 0
	moved := map[uint64]ckptstore.Ref{}
	var roots []uint64
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return 0, fmt.Errorf("serve: reading %s: %w", f, err)
		}
		m, err := ckptstore.DecodeManifest(data)
		if err != nil {
			return 0, fmt.Errorf("serve: %s: %w", f, err)
		}
		for i := range m.Tenants {
			ref := &m.Tenants[i]
			r, err := ref.Ref()
			if err != nil {
				return 0, err
			}
			to, ok := moved[r.ID]
			if !ok {
				payload, _, err := store.Resolve(r.ID)
				if err != nil {
					return 0, fmt.Errorf("serve: tenant %q: %w", ref.Name, err)
				}
				to = r
				if isJSONState(payload) {
					bin, err := convertChunk(payload)
					if err != nil {
						return 0, fmt.Errorf("serve: %s: %w", f, err)
					}
					res, err := store.PutFull(bin)
					if err != nil {
						return 0, fmt.Errorf("serve: tenant %q: %w", ref.Name, err)
					}
					to = res.Ref
					converted++
				}
				moved[r.ID] = to
			}
			ref.Chunk, ref.Chain = ckptstore.FormatChunkID(to.ID), to.Chain
			roots = append(roots, to.ID)
		}
		out, err := ckptstore.EncodeManifest(m)
		if err != nil {
			return 0, fmt.Errorf("serve: %s: %w", f, err)
		}
		if err := atomicio.WriteFile(f, out, 0o644); err != nil {
			return 0, fmt.Errorf("serve: writing %s: %w", f, err)
		}
	}
	if _, err := store.GC(roots); err != nil {
		return 0, fmt.Errorf("serve: collecting converted chunks: %w", err)
	}
	return converted, nil
}
