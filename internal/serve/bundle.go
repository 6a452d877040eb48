package serve

import (
	"encoding/json"
	"fmt"

	"rrsched/internal/ckptstore"
	"rrsched/internal/stream"
)

// Hosted-tier incremental checkpoints. With Config.CheckpointBundles on, the
// per-tick OnShardCheckpoint payload is a ckptstore bundle — the shard's
// manifest plus only the chunks the receiver has not acknowledged — instead
// of the full flat checkpoint. The shard keeps its chunks in an in-memory
// pool (no disk in hosted mode) and tracks acknowledgements: a successful
// hook call acks the manifest's closure, a failed one resets the acks so the
// next push resends everything the receiver might have dropped. The
// dispatcher sniffs push bodies (ckptstore.IsBundle) and flattens bundles
// back to flat checkpoint JSON, so everything downstream of its checkpoint
// store — persistence, failover grants, reshards — is untouched. Flat
// checkpoints and chunk payloads are compact JSON like every state image
// (see shardCheckpoint); only stream.Scheduler.Snapshot is indented.

// offerCheckpoint builds the shard's checkpoint payload (bundle or flat JSON)
// and offers it to Config.OnShardCheckpoint. No-op without a hook.
func (sh *shard) offerCheckpoint() error {
	if sh.cfg.OnShardCheckpoint == nil {
		return nil
	}
	var data []byte
	var err error
	if sh.cfg.CheckpointBundles {
		data, err = sh.buildBundle()
	} else {
		data, err = sh.checkpoint()
	}
	if err != nil {
		return err
	}
	if err := sh.cfg.OnShardCheckpoint(sh.idx, sh.round, data); err != nil {
		if sh.cfg.CheckpointBundles {
			// The push may have been lost: forget every ack so the next bundle
			// carries the full closure again.
			sh.acked = map[uint64]bool{}
			sh.lastClosure = nil
		}
		return fmt.Errorf("serve: shard %d checkpoint hook: %w", sh.idx, err)
	}
	if sh.cfg.CheckpointBundles {
		sh.commitBundleAck()
	}
	return nil
}

// buildBundle cuts the shard into its in-memory chunk pool (dirty tenants
// only; clean ones reuse their chunk) and encodes the manifest plus the
// unacknowledged slice of its closure.
func (sh *shard) buildBundle() ([]byte, error) {
	if sh.pool == nil {
		sh.pool = ckptstore.NewMemStore(sh.cfg.MaxChunkChain)
		sh.acked = map[uint64]bool{}
	}
	m := &ckptstore.Manifest{
		Schema: ckptstore.ManifestSchema,
		Shard:  sh.idx,
		Shards: sh.nshards,
		Round:  sh.round,
	}
	for _, name := range sh.order {
		tn := sh.tenants[name]
		if tn.dirty || tn.chunk.ID == 0 {
			if err := sh.putTenantChunk(tn); err != nil {
				return nil, err
			}
		}
		m.Tenants = append(m.Tenants, ckptstore.TenantRef{
			Name:  name,
			Chunk: ckptstore.FormatChunkID(tn.chunk.ID),
			Chain: tn.chunk.Chain,
		})
	}
	manifest, err := ckptstore.EncodeManifest(m)
	if err != nil {
		return nil, fmt.Errorf("serve: shard %d manifest: %w", sh.idx, err)
	}
	roots, err := m.Roots()
	if err != nil {
		return nil, err
	}
	closure, err := sh.pool.Closure(roots)
	if err != nil {
		return nil, fmt.Errorf("serve: shard %d bundle closure: %w", sh.idx, err)
	}
	chunks := make(map[uint64][]byte)
	for id := range closure {
		if sh.acked[id] {
			continue
		}
		data, ok := sh.pool.Get(id)
		if !ok {
			return nil, fmt.Errorf("serve: shard %d chunk %016x missing from pool", sh.idx, id)
		}
		chunks[id] = data
	}
	bundle, err := ckptstore.EncodeBundle(manifest, chunks)
	if err != nil {
		return nil, fmt.Errorf("serve: shard %d bundle: %w", sh.idx, err)
	}
	sh.lastClosure = closure
	return bundle, nil
}

// commitBundleAck records that the receiver holds the last bundle's closure,
// then prunes the pool and the ack set down to it — chunks superseded by
// newer cuts are no longer anyone's responsibility.
func (sh *shard) commitBundleAck() {
	if sh.lastClosure == nil {
		return
	}
	for id := range sh.lastClosure {
		sh.acked[id] = true
	}
	for id := range sh.acked {
		if !sh.lastClosure[id] {
			delete(sh.acked, id)
		}
	}
	sh.pool.Prune(sh.lastClosure)
	sh.lastClosure = nil
}

// FlattenBundle converts an incremental checkpoint bundle into compact flat
// checkpoint JSON, absorbing the bundle's chunks into pool (which persists
// unacked state across pushes — the sender only resends what a failure makes
// doubtful). A reference the pool cannot resolve is an error: the caller
// should fail the push so the sender resets its acks and resends the full
// closure. Embedded decision streams are padded from their chunk's round to
// the manifest round with trivial decisions, which is exactly what the live
// scheduler appended on those rounds for a clean tenant.
func FlattenBundle(data []byte, pool *ckptstore.MemStore) ([]byte, error) {
	b, err := ckptstore.DecodeBundle(data)
	if err != nil {
		return nil, err
	}
	m, err := ckptstore.DecodeManifest(b.Manifest)
	if err != nil {
		return nil, err
	}
	for id, chunk := range b.Chunks {
		if err := pool.Add(id, chunk); err != nil {
			return nil, err
		}
	}
	cp := shardCheckpoint{
		Schema:         StateSchema,
		Shard:          m.Shard,
		Shards:         m.Shards,
		Round:          m.Round,
		PlacementEpoch: m.PlacementEpoch,
	}
	for i := range m.Tenants {
		ref := &m.Tenants[i]
		if ref.Evicted {
			return nil, fmt.Errorf("serve: bundle manifest pages out tenant %q (hosted shards cannot evict)", ref.Name)
		}
		r, err := ref.Ref()
		if err != nil {
			return nil, err
		}
		payload, _, err := pool.Resolve(r.ID)
		if err != nil {
			return nil, fmt.Errorf("serve: flattening tenant %q: %w", ref.Name, err)
		}
		var tcp tenantChunkPayload
		if err := json.Unmarshal(payload, &tcp); err != nil {
			return nil, fmt.Errorf("serve: flattening tenant %q: %w", ref.Name, err)
		}
		if tcp.Tenant.Name != ref.Name {
			return nil, fmt.Errorf("serve: tenant %q chunk holds tenant %q", ref.Name, tcp.Tenant.Name)
		}
		if tcp.Round < 0 || tcp.Round > m.Round {
			return nil, fmt.Errorf("serve: tenant %q chunk round %d outside [0, %d]", ref.Name, tcp.Round, m.Round)
		}
		if n := len(tcp.Tenant.Decisions); n > 0 {
			if int64(n) != tcp.Round-tcp.Tenant.Epoch {
				return nil, fmt.Errorf("serve: tenant %q chunk has %d decisions, want %d", ref.Name, n, tcp.Round-tcp.Tenant.Epoch)
			}
			for r := tcp.Round; r < m.Round; r++ {
				tcp.Tenant.Decisions = append(tcp.Tenant.Decisions, stream.Decision{Round: r - tcp.Tenant.Epoch})
			}
		}
		cp.Tenants = append(cp.Tenants, tcp.Tenant)
	}
	out, err := json.Marshal(cp)
	if err != nil {
		return nil, fmt.Errorf("serve: flattening shard %d: %w", m.Shard, err)
	}
	roots, err := m.Roots()
	if err != nil {
		return nil, err
	}
	closure, err := pool.Closure(roots)
	if err != nil {
		return nil, err
	}
	pool.Prune(closure)
	return out, nil
}
