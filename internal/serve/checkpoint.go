package serve

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"rrsched/internal/bincodec"
	"rrsched/internal/model"
	"rrsched/internal/stream"
)

// StateSchema names the flat per-shard image format (hosted pushes, close and
// SnapshotShard; the dispatcher stores it as pushed). Version 1 was JSON;
// cmd/rrserve -convert rewrites such images once (see convert.go).
const StateSchema = "rrserve-state/v2"

// Tenant state travels between machines in one binary record, built from the
// varint primitives of internal/bincodec:
//
//	record        name epoch max_id class | delays | queued | inflight |
//	              evicted chunk chain | state | decisions | log decisions
//	shard image   "rI" 2 | shard shards round placement_epoch | n | n × record
//	chunk payload "rC" 1 | round | record
//
// Lists are a length then their elements; the state is the tenant
// scheduler's stream.AppendState image as a length-prefixed string; records
// inside a shard image are length-prefixed too, so the image can be routed
// and resharded as bytes, record by record, without decoding any state. A
// migration frame carries one bare record. stream.Scheduler.Snapshot's JSON
// stays the debug view of the state.
const (
	imageMagic0, imageMagic1 = 'r', 'I'
	imageVersion             = 2
	chunkMagic0, chunkMagic1 = 'r', 'C'
	chunkVersion             = 1
)

// shardCheckpoint is the decoded header of one shard image plus its tenant
// records, still encoded: the next round, and for every tenant the stream
// state plus the ingest-layer state the stream scheduler does not know about
// (queued-but-unpushed jobs, the ID high-water mark, and the inflight
// metadata the metrics layer needs).
type shardCheckpoint struct {
	Shard  int
	Shards int
	Round  int64
	// PlacementEpoch is the placement epoch the shard served under when the
	// checkpoint was cut. Zero for a never-resharded service.
	PlacementEpoch int64

	// Records are the tenant records in name order, aliasing the image, and
	// Names their tenant names.
	Records [][]byte
	Names   []string
}

type tenantCheckpoint struct {
	Name  string
	Epoch int64
	MaxID int64
	// Class is the tenant's QoS class; empty means the default class.
	Class string

	Delays   []colorDelay
	Queued   []queuedJob
	Inflight []inflightJob
	// State is the tenant scheduler's binary state image; empty on a
	// chunk-reference migration frame.
	State []byte
	// Decisions is the tenant's recorded decision stream, present only under
	// Config.CheckpointDecisions: the dispatcher/worker tier embeds history in
	// checkpoints so it survives a shard migration, whereas the classic drain
	// protocol keeps recordings in memory only.
	Decisions []stream.Decision

	// Reshard migration extensions. A frame carrying Chunk ships a reference
	// into the shared chunk store instead of embedded state: Evicted marks a
	// cold stub (no resident state at all), otherwise the target resolves the
	// chunk into a resident tenant. LogDecisions carries the tenant's
	// streaming-log records so its /v1/decisions history survives the move.
	Evicted      bool
	Chunk        uint64
	Chain        int
	LogDecisions []logDecision
}

// logDecision is one streaming-log record riding a migration frame: the
// global round it was appended at and the serialized stream.Decision.
type logDecision struct {
	Round    int64
	Decision []byte
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

// errJSONState refuses a tenant-state image in the JSON format older builds
// wrote: live loaders read only the binary records, and old images are
// converted once, offline.
var errJSONState = errors.New("serve: tenant state is in the JSON format of older builds; convert the state dir once with `rrserve -convert <dir>`")

// isJSONState reports whether data looks like a JSON image (an object,
// possibly indented) rather than a binary one, whose first byte is 'r'.
func isJSONState(data []byte) bool {
	for _, c := range data {
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		case '{':
			return true
		}
		return false
	}
	return false
}

// appendRecord encodes one tenant record.
func appendRecord(b []byte, tcp *tenantCheckpoint) []byte {
	b = bincodec.AppendString(b, tcp.Name)
	b = bincodec.AppendInt(b, tcp.Epoch)
	b = bincodec.AppendInt(b, tcp.MaxID)
	b = bincodec.AppendString(b, tcp.Class)
	b = bincodec.AppendUint(b, uint64(len(tcp.Delays)))
	for _, d := range tcp.Delays {
		b = bincodec.AppendInt(b, int64(d.Color))
		b = bincodec.AppendInt(b, d.Delay)
	}
	b = bincodec.AppendUint(b, uint64(len(tcp.Queued)))
	for _, q := range tcp.Queued {
		b = bincodec.AppendInt(b, q.ID)
		b = bincodec.AppendInt(b, int64(q.Color))
		b = bincodec.AppendInt(b, q.Delay)
	}
	b = bincodec.AppendUint(b, uint64(len(tcp.Inflight)))
	for _, f := range tcp.Inflight {
		b = bincodec.AppendInt(b, f.ID)
		b = bincodec.AppendInt(b, int64(f.Color))
		b = bincodec.AppendInt(b, f.Arrival)
	}
	b = bincodec.AppendBool(b, tcp.Evicted)
	b = bincodec.AppendUint(b, tcp.Chunk)
	b = bincodec.AppendInt(b, int64(tcp.Chain))
	b = bincodec.AppendBytes(b, tcp.State)
	b = bincodec.AppendUint(b, uint64(len(tcp.Decisions)))
	for i := range tcp.Decisions {
		b = appendDecision(b, &tcp.Decisions[i])
	}
	b = bincodec.AppendUint(b, uint64(len(tcp.LogDecisions)))
	for _, ld := range tcp.LogDecisions {
		b = bincodec.AppendInt(b, ld.Round)
		b = bincodec.AppendBytes(b, ld.Decision)
	}
	return b
}

// appendDecision encodes one decision. Its lists are nilable: a decision's
// JSON view distinguishes a nil list (null) from an empty one ([]), and a
// decision served after a restore must be byte-identical to the live one.
func appendDecision(b []byte, d *stream.Decision) []byte {
	b = bincodec.AppendInt(b, d.Round)
	b = bincodec.AppendLen(b, len(d.Reconfigs), true, d.Reconfigs == nil)
	for _, rc := range d.Reconfigs {
		b = bincodec.AppendInt(b, rc.Round)
		b = bincodec.AppendInt(b, int64(rc.Mini))
		b = bincodec.AppendInt(b, int64(rc.Resource))
		b = bincodec.AppendInt(b, int64(rc.To))
	}
	b = bincodec.AppendLen(b, len(d.Executions), true, d.Executions == nil)
	for _, ex := range d.Executions {
		b = bincodec.AppendInt(b, ex.Round)
		b = bincodec.AppendInt(b, int64(ex.Mini))
		b = bincodec.AppendInt(b, int64(ex.Resource))
		b = bincodec.AppendInt(b, ex.JobID)
	}
	b = bincodec.AppendLen(b, len(d.Dropped), true, d.Dropped == nil)
	for _, id := range d.Dropped {
		b = bincodec.AppendInt(b, id)
	}
	return b
}

// readRecord decodes one tenant record. Byte strings (State, log decision
// payloads) alias the reader's input.
func readRecord(r *bincodec.Reader) tenantCheckpoint {
	tcp := tenantCheckpoint{
		Name:  r.String(),
		Epoch: r.Int(),
		MaxID: r.Int(),
		Class: r.String(),
	}
	if n := r.Len(); n > 0 {
		tcp.Delays = make([]colorDelay, n)
		for i := range tcp.Delays {
			tcp.Delays[i] = colorDelay{Color: r.Int32(), Delay: r.Int()}
		}
	}
	if n := r.Len(); n > 0 {
		tcp.Queued = make([]queuedJob, n)
		for i := range tcp.Queued {
			tcp.Queued[i] = queuedJob{ID: r.Int(), Color: r.Int32(), Delay: r.Int()}
		}
	}
	if n := r.Len(); n > 0 {
		tcp.Inflight = make([]inflightJob, n)
		for i := range tcp.Inflight {
			tcp.Inflight[i] = inflightJob{ID: r.Int(), Color: r.Int32(), Arrival: r.Int()}
		}
	}
	tcp.Evicted = r.Bool()
	tcp.Chunk = r.Uint()
	tcp.Chain = r.Intn()
	tcp.State = r.Bytes()
	if n := r.Len(); n > 0 {
		tcp.Decisions = make([]stream.Decision, n)
		for i := range tcp.Decisions {
			tcp.Decisions[i] = readDecision(r)
		}
	}
	if n := r.Len(); n > 0 {
		tcp.LogDecisions = make([]logDecision, n)
		for i := range tcp.LogDecisions {
			tcp.LogDecisions[i] = logDecision{Round: r.Int(), Decision: r.Bytes()}
		}
	}
	return tcp
}

func readDecision(r *bincodec.Reader) stream.Decision {
	d := stream.Decision{Round: r.Int()}
	if n, isNil := r.NilLen(); !isNil {
		d.Reconfigs = make([]model.Reconfigure, n)
		for i := range d.Reconfigs {
			d.Reconfigs[i] = model.Reconfigure{Round: r.Int(), Mini: r.Intn(), Resource: r.Intn(), To: model.Color(r.Int32())}
		}
	}
	if n, isNil := r.NilLen(); !isNil {
		d.Executions = make([]model.Execution, n)
		for i := range d.Executions {
			d.Executions[i] = model.Execution{Round: r.Int(), Mini: r.Intn(), Resource: r.Intn(), JobID: r.Int()}
		}
	}
	if n, isNil := r.NilLen(); !isNil {
		d.Dropped = make([]int64, n)
		for i := range d.Dropped {
			d.Dropped[i] = r.Int()
		}
	}
	return d
}

// decodeRecord decodes a buffer holding exactly one tenant record.
func decodeRecord(data []byte) (*tenantCheckpoint, error) {
	r := bincodec.NewReader(data)
	tcp := readRecord(&r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("serve: decoding tenant record: %w", err)
	}
	return &tcp, nil
}

// appendChunkPayload encodes what a tenant state chunk holds: the tenant's
// record plus the round it was cut at. The round must travel inside the
// chunk because clean tenants keep their old chunk while the manifest's round
// advances — the restored scheduler fast-forwards the gap, which is
// deterministic precisely because a clean tenant's skipped rounds are trivial.
func appendChunkPayload(b []byte, round int64, tcp *tenantCheckpoint) []byte {
	b = append(b, chunkMagic0, chunkMagic1, chunkVersion)
	b = bincodec.AppendInt(b, round)
	return appendRecord(b, tcp)
}

// decodeChunkPayload decodes a tenant state chunk cut for the tenant name,
// checking its round against [0, maxRound].
func decodeChunkPayload(payload []byte, name string, maxRound int64) (int64, *tenantCheckpoint, error) {
	if isJSONState(payload) {
		return 0, nil, fmt.Errorf("serve: tenant %q chunk: %w", name, errJSONState)
	}
	if len(payload) < 3 || payload[0] != chunkMagic0 || payload[1] != chunkMagic1 || payload[2] != chunkVersion {
		return 0, nil, fmt.Errorf("serve: tenant %q chunk: not a version-%d tenant chunk", name, chunkVersion)
	}
	r := bincodec.NewReader(payload[3:])
	round := r.Int()
	tcp := readRecord(&r)
	if err := r.Done(); err != nil {
		return 0, nil, fmt.Errorf("serve: tenant %q chunk: %w", name, err)
	}
	if tcp.Name != name {
		return 0, nil, fmt.Errorf("serve: tenant %q chunk holds tenant %q", name, tcp.Name)
	}
	if err := residentOnly(&tcp); err != nil {
		return 0, nil, err
	}
	if round < 0 || round > maxRound {
		return 0, nil, fmt.Errorf("serve: tenant %q chunk round %d outside [0, %d]", name, round, maxRound)
	}
	return round, &tcp, nil
}

// appendImageHeader starts a shard image of n records.
func appendImageHeader(b []byte, shard, shards int, round, placementEpoch int64, n int) []byte {
	b = append(b, imageMagic0, imageMagic1, imageVersion)
	b = bincodec.AppendInt(b, int64(shard))
	b = bincodec.AppendInt(b, int64(shards))
	b = bincodec.AppendInt(b, round)
	b = bincodec.AppendInt(b, placementEpoch)
	return bincodec.AppendUint(b, uint64(n))
}

// appendShardImage encodes cp as a shard image.
func appendShardImage(b []byte, cp *shardCheckpoint) []byte {
	b = appendImageHeader(b, cp.Shard, cp.Shards, cp.Round, cp.PlacementEpoch, len(cp.Records))
	for _, rec := range cp.Records {
		b = bincodec.AppendBytes(b, rec)
	}
	return b
}

// checkpoint serializes the shard. Runs on the shard goroutine, strictly
// between round ticks, so the image is a consistent cut: every accepted job
// is either inside a scheduler state, in a queued list, or resolved.
func (sh *shard) checkpoint() ([]byte, error) {
	b := appendImageHeader(make([]byte, 0, sh.imageCap), sh.idx, sh.nshards, sh.round, sh.epoch, len(sh.order))
	for _, name := range sh.order {
		tcp, err := sh.checkpointTenant(sh.tenants[name], sh.cfg.CheckpointDecisions)
		if err != nil {
			return nil, err
		}
		sh.recBuf = appendRecord(sh.recBuf[:0], &tcp)
		b = bincodec.AppendBytes(b, sh.recBuf)
	}
	// The next image is about this size: reserve it up front, with headroom
	// for a round's growth, instead of growing the buffer from empty.
	sh.imageCap = len(b) + len(b)/8
	return b, nil
}

// checkpointTenant serializes one tenant. Shared by whole-shard checkpoints
// and the reshard migration path, which ships single tenants between shards.
func (sh *shard) checkpointTenant(tn *tenant, decisions bool) (tenantCheckpoint, error) {
	state, err := tn.sched.AppendState(sh.stateBuf[:0])
	if err != nil {
		return tenantCheckpoint{}, fmt.Errorf("serve: checkpointing tenant %q: %w", tn.name, err)
	}
	sh.stateBuf = state
	tcp := tenantCheckpoint{
		Name:  tn.name,
		Epoch: tn.epoch,
		MaxID: tn.maxID,
		State: state,
	}
	tcp.Class = sh.recordClass(tn.class)
	for c, d := range tn.delays {
		tcp.Delays = append(tcp.Delays, colorDelay{Color: int32(c), Delay: d})
	}
	slices.SortFunc(tcp.Delays, func(a, b colorDelay) int { return cmp.Compare(a.Color, b.Color) })
	for _, j := range tn.queued {
		tcp.Queued = append(tcp.Queued, queuedJob{ID: j.ID, Color: int32(j.Color), Delay: j.Delay})
	}
	slices.SortFunc(tcp.Queued, func(a, b queuedJob) int { return cmp.Compare(a.ID, b.ID) })
	for id, meta := range tn.inflight {
		tcp.Inflight = append(tcp.Inflight, inflightJob{ID: id, Color: int32(meta.Color), Arrival: meta.Arrival})
	}
	slices.SortFunc(tcp.Inflight, func(a, b inflightJob) int { return cmp.Compare(a.ID, b.ID) })
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
	for i, rec := range cp.Records {
		name := cp.Names[i]
		if got := ring.ShardOf(name); got != sh.idx {
			return fmt.Errorf("serve: checkpoint places tenant %q on shard %d, ring says %d", name, sh.idx, got)
		}
		tcp, err := decodeRecord(rec)
		if err != nil {
			return fmt.Errorf("serve: checkpoint tenant %q: %w", name, err)
		}
		if err := residentOnly(tcp); err != nil {
			return err
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

// decodeShardCheckpoint parses and structurally validates one shard image:
// header, round, and each record's tenant name (but not placement — the
// caller decides which ring and shard index the image must agree with — and
// not the records' state, which stays encoded until a caller restores it).
func decodeShardCheckpoint(data []byte) (*shardCheckpoint, error) {
	if isJSONState(data) {
		return nil, fmt.Errorf("serve: decoding shard checkpoint: %w", errJSONState)
	}
	if len(data) < 3 || data[0] != imageMagic0 || data[1] != imageMagic1 {
		return nil, fmt.Errorf("serve: decoding shard checkpoint: not an %s image", StateSchema)
	}
	if data[2] != imageVersion {
		return nil, fmt.Errorf("serve: shard checkpoint version %d, want %d (%s)", data[2], imageVersion, StateSchema)
	}
	r := bincodec.NewReader(data[3:])
	cp := &shardCheckpoint{
		Shard:          r.Intn(),
		Shards:         r.Intn(),
		Round:          r.Int(),
		PlacementEpoch: r.Int(),
	}
	n := r.Len()
	cp.Records = make([][]byte, n)
	cp.Names = make([]string, n)
	for i := range cp.Records {
		cp.Records[i] = r.Bytes()
		name := bincodec.NewReader(cp.Records[i])
		cp.Names[i] = name.String()
		if err := name.Err(); err != nil {
			return nil, fmt.Errorf("serve: decoding shard checkpoint record %d: %w", i, err)
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("serve: decoding shard checkpoint: %w", err)
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
	for i, name := range cp.Names {
		if err := ValidateTenant(name); err != nil {
			return nil, fmt.Errorf("serve: checkpoint tenant: %w", err)
		}
		if i > 0 && name <= cp.Names[i-1] {
			return nil, fmt.Errorf("serve: checkpoint tenants not in strictly ascending order at %q", name)
		}
	}
	return cp, nil
}

// ImageTenants lists the tenants of a shard image, in image order, without
// decoding their state: the dispatcher's reshard accounting needs only the
// names.
func ImageTenants(image []byte) ([]string, error) {
	cp, err := decodeShardCheckpoint(image)
	if err != nil {
		return nil, err
	}
	return cp.Names, nil
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
	sched, err := stream.RestoreState(tcp.State)
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
	if err := sh.canonicalRecord(tcp, tn); err != nil {
		return nil, err
	}
	return tn, nil
}

// canonicalRecord refuses a record that is not what checkpointTenant writes
// for the tenant buildTenant made of it — lists out of their sorted order, a
// spelled-out default class — so a restored record re-encodes to its own
// bytes and equal tenants keep one chunk.
func (sh *shard) canonicalRecord(tcp *tenantCheckpoint, tn *tenant) error {
	if want := sh.recordClass(tn.class); tcp.Class != want {
		return fmt.Errorf("serve: tenant %q record names class %q, canonical form %q", tcp.Name, tcp.Class, want)
	}
	for i := 1; i < len(tcp.Delays); i++ {
		if tcp.Delays[i].Color <= tcp.Delays[i-1].Color {
			return fmt.Errorf("serve: tenant %q record delays not strictly ascending at color %d", tcp.Name, tcp.Delays[i].Color)
		}
	}
	for i := 1; i < len(tcp.Queued); i++ {
		if tcp.Queued[i].ID <= tcp.Queued[i-1].ID {
			return fmt.Errorf("serve: tenant %q record queued jobs not strictly ascending at id %d", tcp.Name, tcp.Queued[i].ID)
		}
	}
	for i := 1; i < len(tcp.Inflight); i++ {
		if tcp.Inflight[i].ID <= tcp.Inflight[i-1].ID {
			return fmt.Errorf("serve: tenant %q record inflight jobs not strictly ascending at id %d", tcp.Name, tcp.Inflight[i].ID)
		}
	}
	return nil
}

// recordClass is the class name a record carries for class index c: empty
// for the default class at index 0, which keeps single-class records short.
func (sh *shard) recordClass(c int) string {
	if c == 0 && sh.classes[0].Name == DefaultClass {
		return ""
	}
	return sh.classes[c].Name
}

// residentOnly refuses migration fields on a record read from a shard image
// or a chunk, where only resident state belongs.
func residentOnly(tcp *tenantCheckpoint) error {
	if tcp.Evicted || tcp.Chunk != 0 || tcp.Chain != 0 || len(tcp.LogDecisions) > 0 {
		return fmt.Errorf("serve: tenant %q record carries migration fields outside a migration frame", tcp.Name)
	}
	return nil
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
