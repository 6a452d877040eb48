package serve

import (
	"encoding/json"
	"fmt"
	"sort"

	"rrsched/internal/model"
	"rrsched/internal/stream"
)

// StateSchema versions the flat per-shard checkpoint image (hosted pushes,
// close and SnapshotShard; the dispatcher stores it as pushed).
const StateSchema = "rrserve-state/v1"

// shardCheckpoint is the JSON image of one shard: the next round, and for
// every tenant the embedded stream checkpoint plus the ingest-layer state the
// stream scheduler does not know about (queued-but-unpushed jobs, the ID
// high-water mark, and the inflight metadata the metrics layer needs).
//
// Images are written as compact JSON, tenant snapshots included
// (stream.Scheduler.AppendSnapshot): they travel machine to machine on every
// hosted tick, sync and close. stream.Scheduler.Snapshot is the
// indented debug view of the same state. Restore accepts either spacing, so
// indented images written by older builds still restore.
type shardCheckpoint struct {
	Schema string `json:"schema"`
	Shard  int    `json:"shard"`
	Shards int    `json:"shards"`
	Round  int64  `json:"round"`
	// PlacementEpoch is the placement epoch the shard served under when the
	// checkpoint was cut. Zero (and omitted) for a never-resharded service,
	// which keeps pre-epoch checkpoint files decoding unchanged.
	PlacementEpoch int64 `json:"placement_epoch,omitempty"`

	Tenants []tenantCheckpoint `json:"tenants,omitempty"`
}

type tenantCheckpoint struct {
	Name  string `json:"name"`
	Epoch int64  `json:"epoch"`
	MaxID int64  `json:"max_id"`
	// Class is the tenant's QoS class; empty means the default class, so
	// pre-class checkpoints restore into the default class unchanged.
	Class string `json:"class,omitempty"`

	Delays   []colorDelay    `json:"delays,omitempty"`
	Queued   []queuedJob     `json:"queued,omitempty"`
	Inflight []inflightJob   `json:"inflight,omitempty"`
	Snapshot json.RawMessage `json:"snapshot"`
	// Decisions is the tenant's recorded decision stream, present only under
	// Config.CheckpointDecisions: the dispatcher/worker tier embeds history in
	// checkpoints so it survives a shard migration, whereas the classic drain
	// protocol keeps recordings in memory only.
	Decisions []stream.Decision `json:"decisions,omitempty"`

	// Reshard migration extensions. A frame carrying Chunk ships a reference
	// into the shared chunk store instead of embedded state: Evicted marks a
	// cold stub (no resident state at all), otherwise the target resolves the
	// chunk into a resident tenant. LogDecisions carries the tenant's
	// streaming-log records so its /v1/decisions history survives the move.
	Evicted      bool          `json:"evicted,omitempty"`
	Chunk        string        `json:"chunk,omitempty"`
	Chain        int           `json:"chain,omitempty"`
	LogDecisions []logDecision `json:"log_decisions,omitempty"`
}

// logDecision is one streaming-log record riding a migration frame: the
// global round it was appended at and the serialized stream.Decision.
type logDecision struct {
	Round    int64           `json:"round"`
	Decision json.RawMessage `json:"decision"`
}

type colorDelay struct {
	Color int32 `json:"color"`
	Delay int64 `json:"delay"`
}

type queuedJob struct {
	ID    int64 `json:"id"`
	Color int32 `json:"color"`
	Delay int64 `json:"delay"`
}

type inflightJob struct {
	ID      int64 `json:"id"`
	Color   int32 `json:"color"`
	Arrival int64 `json:"arrival"`
}

// checkpoint serializes the shard. Runs on the shard goroutine, strictly
// between round ticks, so the image is a consistent cut: every accepted job
// is either inside a scheduler snapshot, in a queued list, or resolved.
func (sh *shard) checkpoint() ([]byte, error) {
	cp := shardCheckpoint{
		Schema:         StateSchema,
		Shard:          sh.idx,
		Shards:         sh.nshards,
		Round:          sh.round,
		PlacementEpoch: sh.epoch,
	}
	for _, name := range sh.order {
		tcp, err := sh.checkpointTenant(sh.tenants[name], sh.cfg.CheckpointDecisions)
		if err != nil {
			return nil, err
		}
		cp.Tenants = append(cp.Tenants, tcp)
	}
	return json.Marshal(cp)
}

// checkpointTenant serializes one tenant. Shared by whole-shard checkpoints
// and the reshard migration path, which ships single tenants between shards.
func (sh *shard) checkpointTenant(tn *tenant, decisions bool) (tenantCheckpoint, error) {
	snap, err := tn.sched.AppendSnapshot(nil)
	if err != nil {
		return tenantCheckpoint{}, fmt.Errorf("serve: checkpointing tenant %q: %w", tn.name, err)
	}
	tcp := tenantCheckpoint{
		Name:     tn.name,
		Epoch:    tn.epoch,
		MaxID:    tn.maxID,
		Snapshot: snap,
	}
	if tn.class != 0 || sh.classes[tn.class].Name != DefaultClass {
		tcp.Class = sh.classes[tn.class].Name
	}
	for c, d := range tn.delays {
		tcp.Delays = append(tcp.Delays, colorDelay{Color: int32(c), Delay: d})
	}
	sort.Slice(tcp.Delays, func(i, j int) bool { return tcp.Delays[i].Color < tcp.Delays[j].Color })
	for _, j := range tn.queued {
		tcp.Queued = append(tcp.Queued, queuedJob{ID: j.ID, Color: int32(j.Color), Delay: j.Delay})
	}
	sort.Slice(tcp.Queued, func(i, j int) bool { return tcp.Queued[i].ID < tcp.Queued[j].ID })
	for id, meta := range tn.inflight {
		tcp.Inflight = append(tcp.Inflight, inflightJob{ID: id, Color: int32(meta.Color), Arrival: meta.Arrival})
	}
	sort.Slice(tcp.Inflight, func(i, j int) bool { return tcp.Inflight[i].ID < tcp.Inflight[j].ID })
	if decisions {
		tcp.Decisions = tn.decisions
	}
	return tcp, nil
}

// restoreShard rebuilds a shard's goroutine-owned state from checkpoint
// bytes. Called before the shard goroutine starts, so plain field writes are
// safe. Validation is field by field: a corrupted file is rejected with an
// error rather than resumed into an inconsistent service.
func (sh *shard) restoreShard(data []byte, ring hashRing) error {
	cp, err := decodeShardCheckpoint(data)
	if err != nil {
		return err
	}
	if cp.Shard != sh.idx {
		return fmt.Errorf("serve: checkpoint is for shard %d, restoring shard %d", cp.Shard, sh.idx)
	}
	if cp.Shards != sh.cfg.Shards {
		return fmt.Errorf("serve: checkpoint taken with %d shards, shard expects %d", cp.Shards, sh.cfg.Shards)
	}
	sh.round = cp.Round
	if !sh.cfg.Hosted {
		// A hosted shard's placement is the dispatcher's config epoch, not a
		// worker-local ring epoch: leave it at zero there.
		sh.epoch = cp.PlacementEpoch
	}
	for i := range cp.Tenants {
		tcp := &cp.Tenants[i]
		if _, dup := sh.tenants[tcp.Name]; dup {
			return fmt.Errorf("serve: checkpoint repeats tenant %q", tcp.Name)
		}
		if got := ring.ShardOf(tcp.Name); got != sh.idx {
			return fmt.Errorf("serve: checkpoint places tenant %q on shard %d, ring says %d", tcp.Name, sh.idx, got)
		}
		tn, err := sh.buildTenant(tcp, cp.Round)
		if err != nil {
			return err
		}
		sh.adoptTenant(tn)
	}
	sort.Strings(sh.order)
	sh.setStateGauges()
	return nil
}

// decodeShardCheckpoint parses and structurally validates one shard
// checkpoint file: schema, round, and per-tenant shape (but not placement —
// the caller decides which ring and shard index the file must agree with).
func decodeShardCheckpoint(data []byte) (*shardCheckpoint, error) {
	var cp shardCheckpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("serve: decoding shard checkpoint: %w", err)
	}
	if cp.Schema != StateSchema {
		return nil, fmt.Errorf("serve: shard checkpoint schema %q, want %q", cp.Schema, StateSchema)
	}
	if cp.Round < 0 {
		return nil, fmt.Errorf("serve: checkpoint has negative round %d", cp.Round)
	}
	if cp.Shard < 0 || cp.Shards < 1 || cp.Shard >= cp.Shards {
		return nil, fmt.Errorf("serve: checkpoint names shard %d of %d", cp.Shard, cp.Shards)
	}
	if cp.PlacementEpoch < 0 {
		return nil, fmt.Errorf("serve: checkpoint has negative placement epoch %d", cp.PlacementEpoch)
	}
	for i := range cp.Tenants {
		if err := ValidateTenant(cp.Tenants[i].Name); err != nil {
			return nil, fmt.Errorf("serve: checkpoint tenant: %w", err)
		}
	}
	return &cp, nil
}

// buildTenant reconstructs one tenant from its checkpoint image, validating
// field by field: a corrupted file is rejected with an error rather than
// resumed into an inconsistent service. round is the owning checkpoint's
// round (the bound on tenant epochs and decision history).
func (sh *shard) buildTenant(tcp *tenantCheckpoint, round int64) (*tenant, error) {
	if tcp.Epoch < 0 || tcp.Epoch > round {
		return nil, fmt.Errorf("serve: tenant %q has epoch %d outside [0, %d]", tcp.Name, tcp.Epoch, round)
	}
	class, ok := sh.restoreClass(tcp.Class)
	if !ok {
		return nil, fmt.Errorf("serve: tenant %q has unknown class %q", tcp.Name, tcp.Class)
	}
	sched, err := stream.Restore(tcp.Snapshot)
	if err != nil {
		return nil, fmt.Errorf("serve: restoring tenant %q: %w", tcp.Name, err)
	}
	tn := &tenant{
		name:       tcp.Name,
		epoch:      tcp.Epoch,
		sched:      sched,
		maxID:      tcp.MaxID,
		delays:     make(map[model.Color]int64, len(tcp.Delays)),
		inflight:   make(map[int64]jobMeta, len(tcp.Inflight)),
		class:      class,
		lastActive: round,
	}
	for _, d := range tcp.Delays {
		if d.Color < 0 || d.Delay <= 0 || d.Delay > MaxDelayBound {
			return nil, fmt.Errorf("serve: tenant %q has invalid delay bound %d for color %d", tcp.Name, d.Delay, d.Color)
		}
		tn.delays[model.Color(d.Color)] = d.Delay
	}
	for _, q := range tcp.Queued {
		if q.ID < 0 || q.ID > tcp.MaxID {
			return nil, fmt.Errorf("serve: tenant %q queued job id %d outside [0, %d]", tcp.Name, q.ID, tcp.MaxID)
		}
		d, ok := tn.delays[model.Color(q.Color)]
		if !ok || d != q.Delay {
			return nil, fmt.Errorf("serve: tenant %q queued job %d has unregistered delay %d for color %d", tcp.Name, q.ID, q.Delay, q.Color)
		}
		tn.queued = append(tn.queued, model.Job{ID: q.ID, Color: model.Color(q.Color), Delay: q.Delay})
	}
	for _, f := range tcp.Inflight {
		if _, dup := tn.inflight[f.ID]; dup {
			return nil, fmt.Errorf("serve: tenant %q repeats inflight job %d", tcp.Name, f.ID)
		}
		if f.Color < 0 {
			return nil, fmt.Errorf("serve: tenant %q inflight job %d has negative color", tcp.Name, f.ID)
		}
		tn.inflight[f.ID] = jobMeta{Color: model.Color(f.Color), Arrival: f.Arrival}
	}
	if len(tcp.Decisions) > 0 {
		// A decision-bearing checkpoint carries the tenant's full history:
		// one decision per local round since its epoch.
		if int64(len(tcp.Decisions)) != round-tcp.Epoch {
			return nil, fmt.Errorf("serve: tenant %q checkpoint has %d decisions, want %d (rounds %d..%d)",
				tcp.Name, len(tcp.Decisions), round-tcp.Epoch, tcp.Epoch, round)
		}
		tn.decisions = tcp.Decisions
	}
	return tn, nil
}

// restoreClass maps a checkpointed class name (empty = default) to a class
// index in the shard's table.
func (sh *shard) restoreClass(name string) (int, bool) {
	if name == "" {
		name = DefaultClass
	}
	i, ok := sh.classIdx[name]
	return i, ok
}

// adoptTenant installs a reconstructed tenant into the shard's state. The
// caller is responsible for keeping sh.order sorted (restoreShard sorts once
// at the end; the reshard inject path inserts in place) and for refreshing
// the gauges via setStateGauges.
func (sh *shard) adoptTenant(tn *tenant) {
	sh.tenants[tn.name] = tn
	sh.order = append(sh.order, tn.name)
	sh.backlog += len(tn.queued)
	sh.classBacklog[tn.class] += len(tn.queued)
	sh.inflight += len(tn.inflight)
}

// setStateGauges refreshes the level gauges from the shard's rebuilt state.
func (sh *shard) setStateGauges() {
	sh.met.tenants.Set(int64(len(sh.tenants)))
	sh.met.backlog.Set(int64(sh.backlog))
	sh.met.sm.QueueDepth.Set(int64(sh.inflight))
}
