package dispatch

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rrsched/internal/atomicio"
	"rrsched/internal/ckptstore"
	"rrsched/internal/obs"
	"rrsched/internal/serve"
)

// Config parameterizes the dispatcher.
type Config struct {
	// Service is the scheduling-service shape handed to every worker at
	// registration. All workers run the same config; checkpoints are only
	// portable between identical services.
	Service ServiceConfig
	// HeartbeatEvery is the interval workers must heartbeat at. Default 1s.
	HeartbeatEvery time.Duration
	// MissBudget is how many heartbeat intervals may elapse without a
	// heartbeat before a worker is declared dead and its shards fail over.
	// Workers apply the same budget to fence themselves when they cannot
	// reach the dispatcher. Default 3.
	MissBudget int
	// StateDir, when set, persists every accepted checkpoint to one file per
	// shard (tmp+rename), so a restarted dispatcher regrants shards from the
	// last state it had rather than from scratch. Empty disables durability.
	StateDir string
}

func (cfg *Config) validate() error {
	if err := cfg.Service.validate(); err != nil {
		return err
	}
	if cfg.HeartbeatEvery < 0 {
		return fmt.Errorf("dispatch: negative heartbeat interval %v", cfg.HeartbeatEvery)
	}
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = time.Second
	}
	if cfg.MissBudget < 0 {
		return fmt.Errorf("dispatch: negative miss budget %d", cfg.MissBudget)
	}
	if cfg.MissBudget == 0 {
		cfg.MissBudget = 3
	}
	return nil
}

// lease is the dispatcher's record of one shard: who holds it, under which
// epoch, and the latest checkpoint pushed for it.
type lease struct {
	worker   string // "" while unassigned
	epoch    int64  // bumped on every grant and on every fencing revoke
	round    int64  // round of the stored checkpoint
	revoking bool   // graceful revoke issued; awaiting the final checkpoint

	checkpoint []byte // latest accepted checkpoint (nil = open fresh)
	// pool absorbs the content-addressed chunks of incremental checkpoint
	// bundles pushed for this shard (workers running with checkpoint
	// bundling). Bundles are flattened to legacy checkpoint JSON on arrival,
	// so everything downstream — persistence, grants, reshards — sees flat
	// state; the pool only persists un-superseded chunks between pushes.
	pool *ckptstore.MemStore
	// deadSinceNs is non-zero while the shard awaits reassignment after its
	// holder died; cleared (and observed into the failover-latency histogram)
	// at the regrant.
	deadSinceNs int64
}

// workerInfo is the dispatcher's record of one registered worker.
type workerInfo struct {
	name       string
	addr       string
	alive      bool
	lastSeenNs int64
}

// Dispatcher owns the tenant→shard placement: it leases shards to registered
// workers, renews the leases on heartbeats, stores the checkpoints workers
// push after every tick, and — when a worker misses its heartbeat budget —
// revokes its leases and regrants the shards to survivors from those stored
// checkpoints.
type Dispatcher struct {
	cfg Config
	reg *obs.Registry
	met *obs.DispatchMetrics
	now func() int64 // obs.Now, injectable in tests

	mu      sync.Mutex
	workers map[string]*workerInfo
	leases  []lease
	// configEpoch versions cfg.Service. Reshard bumps it; workers echo it in
	// heartbeats, and a mismatch withholds grants until the worker rebuilds
	// its hosted service from the fresh config.
	configEpoch int64

	monitorStop chan struct{}
	monitorDone chan struct{}
	closeOnce   sync.Once
}

// New builds a dispatcher and starts its failure monitor. If cfg.StateDir
// holds checkpoints from a previous incarnation (same shard count), they seed
// the lease table so regrants resume from persisted state.
func New(cfg Config) (*Dispatcher, error) {
	return newDispatcher(cfg, obs.Now)
}

// newDispatcher is New with an injectable clock, so tests drive failure
// detection deterministically.
func newDispatcher(cfg Config, now func() int64) (*Dispatcher, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	met, err := obs.NewDispatchMetrics(reg)
	if err != nil {
		return nil, err
	}
	d := &Dispatcher{
		cfg:         cfg,
		reg:         reg,
		met:         met,
		now:         now,
		workers:     map[string]*workerInfo{},
		leases:      make([]lease, cfg.Service.Shards),
		monitorStop: make(chan struct{}),
		monitorDone: make(chan struct{}),
	}
	if cfg.StateDir != "" {
		if err := d.loadState(); err != nil {
			return nil, err
		}
	}
	go d.monitor()
	return d, nil
}

// Close stops the failure monitor. Workers discover the dispatcher is gone
// through failed heartbeats and fence themselves.
func (d *Dispatcher) Close() {
	d.closeOnce.Do(func() {
		close(d.monitorStop)
		<-d.monitorDone
	})
}

// monitor periodically sweeps for workers that have exceeded the heartbeat
// miss budget. It polls at half the heartbeat interval so detection lags the
// budget by at most half an interval.
func (d *Dispatcher) monitor() {
	defer close(d.monitorDone)
	every := d.cfg.HeartbeatEvery / 2
	if every <= 0 {
		every = d.cfg.HeartbeatEvery
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			d.sweep(d.now())
		case <-d.monitorStop:
			return
		}
	}
}

// sweep declares every worker dead whose last heartbeat is older than
// HeartbeatEvery × MissBudget, fences its leases (epoch bump), and marks its
// shards for reassignment at the next surviving heartbeat.
func (d *Dispatcher) sweep(nowNs int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	deadline := int64(d.cfg.HeartbeatEvery) * int64(d.cfg.MissBudget)
	for _, w := range d.workers {
		if !w.alive || nowNs-w.lastSeenNs <= deadline {
			continue
		}
		d.met.HeartbeatMisses.Inc()
		w.alive = false
		d.met.WorkersDead.Inc()
		d.met.Workers.Add(-1)
		for i := range d.leases {
			l := &d.leases[i]
			if l.worker != w.name {
				continue
			}
			// Fence: any checkpoint the dead worker still manages to push
			// carries the old epoch and is rejected. The stored checkpoint —
			// taken synchronously after the shard's last completed tick — is
			// what the survivor restores.
			l.epoch++
			l.worker = ""
			l.revoking = false
			l.deadSinceNs = nowNs
			d.met.LeaseRevokes.Inc()
			d.met.Failovers.Inc()
			d.met.ShardsAssigned.Add(-1)
		}
	}
}

// register admits (or re-admits) a worker. A re-registration under a live
// name resets the worker's record: a restarted process holds nothing, and
// lease reconciliation at its next heartbeat will fence whatever the table
// still attributes to it.
func (d *Dispatcher) register(req *RegisterRequest) *RegisterResponse {
	d.mu.Lock()
	defer d.mu.Unlock()
	w, ok := d.workers[req.Worker]
	if !ok {
		w = &workerInfo{name: req.Worker}
		d.workers[req.Worker] = w
	}
	if !w.alive {
		d.met.Workers.Add(1)
	}
	w.addr = req.Addr
	w.alive = true
	w.lastSeenNs = d.now()
	return &RegisterResponse{
		Schema:           WireSchema,
		Config:           d.cfg.Service,
		HeartbeatEveryMs: d.cfg.HeartbeatEvery.Milliseconds(),
		MissBudget:       d.cfg.MissBudget,
		ConfigEpoch:      d.configEpoch,
	}
}

// errUnknownWorker marks a heartbeat from a worker that never registered (or
// that the dispatcher restarted away); the worker must re-register.
var errUnknownWorker = fmt.Errorf("dispatch: unknown worker; register first")

// heartbeat renews a worker's liveness and reconciles leases: held leases are
// renewed or revoked, lost leases are fenced, over-fair-share holdings are
// revoked gracefully, and unassigned shards are granted up to the fair share.
func (d *Dispatcher) heartbeat(req *HeartbeatRequest) (*HeartbeatResponse, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	w, ok := d.workers[req.Worker]
	if !ok {
		return nil, errUnknownWorker
	}
	d.met.Heartbeats.Inc()
	if !w.alive {
		// The worker outlived a death sentence (a partition healed). Its
		// leases were fenced at the sweep; reconciliation below revokes
		// whatever it still claims to hold.
		w.alive = true
		d.met.Workers.Add(1)
	}
	w.lastSeenNs = d.now()

	resp := &HeartbeatResponse{Schema: WireSchema}
	if req.ConfigEpoch != d.configEpoch {
		// The worker's hosted service was built under an older (or, after a
		// dispatcher restart, newer) config generation. Hand back the current
		// config and withhold grants: a checkpoint taken under one shard count
		// must never be opened into a service built for another. Revocation of
		// whatever it still claims proceeds below as usual.
		resp.ConfigEpoch = d.configEpoch
		cfgCopy := d.cfg.Service
		resp.Config = &cfgCopy
	}
	held := map[int]LeaseInfo{}
	for _, l := range req.Held {
		if l.Shard < len(d.leases) {
			held[l.Shard] = l
		} else {
			resp.Revokes = append(resp.Revokes, l.Shard)
		}
	}

	// Leases the table attributes to this worker but the worker no longer
	// claims: a lost grant response or a restarted process. Fence and free.
	for i := range d.leases {
		l := &d.leases[i]
		if l.worker != req.Worker {
			continue
		}
		if _, ok := held[i]; !ok {
			l.epoch++
			l.worker = ""
			l.revoking = false
			d.met.LeaseRevokes.Inc()
			d.met.ShardsAssigned.Add(-1)
		}
	}

	// Held leases: renew matches, revoke everything else (zombie holdings
	// under a stale epoch, or shards reassigned while the worker was away).
	valid := 0
	for shard, info := range held {
		l := &d.leases[shard]
		if l.worker == req.Worker && l.epoch == info.Epoch {
			d.met.LeaseRenewals.Inc()
			if l.revoking {
				resp.Revokes = append(resp.Revokes, shard)
			} else {
				valid++
			}
		} else {
			d.met.StaleEpochs.Inc()
			resp.Revokes = append(resp.Revokes, shard)
		}
	}

	// Fair share: ceil(shards / live workers). Graceful rebalance revokes the
	// excess (highest shard index first, deterministically); the freed shards
	// reach an underloaded worker once the final checkpoint lands.
	live := 0
	for _, wi := range d.workers {
		if wi.alive {
			live++
		}
	}
	fair := (len(d.leases) + live - 1) / live
	if valid > fair {
		for i := len(d.leases) - 1; i >= 0 && valid > fair; i-- {
			l := &d.leases[i]
			if l.worker == req.Worker && !l.revoking {
				if _, ok := held[i]; ok {
					l.revoking = true
					resp.Revokes = append(resp.Revokes, i)
					d.met.LeaseRevokes.Inc()
					valid--
				}
			}
		}
	}

	// Grants: hand unassigned shards to this worker up to its fair share,
	// each with the latest stored checkpoint. A worker on a stale config gets
	// nothing until it rebuilds and heartbeats under the current epoch.
	for i := range d.leases {
		if valid >= fair || resp.Config != nil {
			break
		}
		l := &d.leases[i]
		if l.worker != "" {
			continue
		}
		l.worker = req.Worker
		l.epoch++
		grant := LeaseGrant{Shard: i, Epoch: l.epoch, Round: l.round}
		if len(l.checkpoint) > 0 {
			grant.Checkpoint = append(json.RawMessage(nil), l.checkpoint...)
		}
		resp.Grants = append(resp.Grants, grant)
		d.met.LeaseGrants.Inc()
		d.met.ShardsAssigned.Add(1)
		if l.deadSinceNs != 0 {
			d.met.FailoverNs.Observe(d.now() - l.deadSinceNs)
			l.deadSinceNs = 0
		}
		valid++
	}
	sort.Ints(resp.Revokes)
	return resp, nil
}

// errStaleEpoch marks a checkpoint push fenced by a newer lease epoch.
var errStaleEpoch = fmt.Errorf("dispatch: stale lease epoch")

// storeCheckpoint accepts a checkpoint push: the freshest state of one shard,
// fenced by lease epoch. A final push on a revoking lease completes the
// graceful handoff and frees the shard for regranting. An accepted push's
// Data (or its flattened bundle) becomes the stored checkpoint without a
// copy; see CheckpointPush.Data.
func (d *Dispatcher) storeCheckpoint(req *CheckpointPush) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if req.Shard >= len(d.leases) {
		return fmt.Errorf("dispatch: checkpoint names shard %d of %d", req.Shard, len(d.leases))
	}
	l := &d.leases[req.Shard]
	if l.worker != req.Worker || l.epoch != req.Epoch {
		d.met.StaleEpochs.Inc()
		return fmt.Errorf("%w: shard %d epoch %d from %q, lease is epoch %d held by %q",
			errStaleEpoch, req.Shard, req.Epoch, req.Worker, l.epoch, l.worker)
	}
	data := req.Data
	if ckptstore.IsBundle(data) {
		// An incremental bundle: absorb its chunks and flatten to legacy
		// checkpoint JSON. A failure (e.g. a reference to a chunk a restarted
		// dispatcher no longer holds) rejects the push — the worker resets its
		// acks and resends the full closure.
		if l.pool == nil {
			l.pool = ckptstore.NewMemStore(0)
		}
		flat, err := serve.FlattenBundle(data, l.pool)
		if err != nil {
			return fmt.Errorf("dispatch: shard %d bundle: %w", req.Shard, err)
		}
		data = flat
	}
	l.checkpoint = data
	l.round = req.Round
	d.met.Checkpoints.Inc()
	d.met.CheckpointBytes.Observe(int64(len(req.Data)))
	if req.Final {
		l.worker = ""
		l.revoking = false
		d.met.ShardsAssigned.Add(-1)
	}
	if d.cfg.StateDir != "" {
		if err := d.persistLocked(req.Shard); err != nil {
			return err
		}
	}
	return nil
}

// Reshard resizes the fleet to newShards at the current round boundary: it
// transforms the stored checkpoint set through serve.ReshardCheckpoints
// (splitting or merging per the consistent-hash ring of the new count), fences
// every outstanding lease epoch, bumps the config epoch so workers rebuild
// their hosted services before claiming anything, and rebuilds the lease table
// so the next heartbeats grant the migrated shards.
//
// The precondition is the fleet-wide round barrier the driver already
// maintains: every shard must have a stored checkpoint, all at the same round.
// (A fleet that has never checkpointed resizes without a transform.) Between
// driver rounds that holds by construction — confirmStored leaves every store
// at the driver's round — and mid-round it cannot hold, so a reshard can only
// land where the serve-layer determinism proof needs it to.
func (d *Dispatcher) Reshard(newShards int) (*serve.ReshardResponse, error) {
	start := d.now()
	d.mu.Lock()
	defer d.mu.Unlock()
	old := len(d.leases)
	if newShards < 1 || newShards > MaxShards {
		return nil, fmt.Errorf("dispatch: reshard to %d shards out of range (1..%d)", newShards, MaxShards)
	}
	if newShards == old {
		return nil, fmt.Errorf("dispatch: fleet already has %d shards", old)
	}
	have := 0
	for i := range d.leases {
		if len(d.leases[i].checkpoint) > 0 {
			have++
		}
	}
	if have != 0 && have != old {
		return nil, fmt.Errorf("dispatch: reshard needs a stored checkpoint for every shard (%d of %d present); drive a full round first", have, old)
	}
	var newData [][]byte
	var round, migrated int64
	moved := 0
	if have == old {
		round = d.leases[0].round
		olds := make([][]byte, old)
		for i := range d.leases {
			if d.leases[i].round != round {
				return nil, fmt.Errorf("dispatch: shard rounds diverge (shard 0 at %d, shard %d at %d); reshard lands only on a round boundary",
					round, i, d.leases[i].round)
			}
			olds[i] = d.leases[i].checkpoint
		}
		var err error
		newData, err = serve.ReshardCheckpoints(olds, newShards)
		if err != nil {
			return nil, err
		}
		if moved, err = movedTenants(olds, old, newShards); err != nil {
			return nil, err
		}
		for i := range newData {
			migrated += int64(len(newData[i]))
		}
	}
	// Fence everything the old placement issued: new leases start past the
	// highest epoch ever granted, so any straggler push or held claim from the
	// old topology is stale on arrival.
	maxEpoch := int64(0)
	for i := range d.leases {
		if d.leases[i].epoch > maxEpoch {
			maxEpoch = d.leases[i].epoch
		}
		if d.leases[i].worker != "" {
			d.met.LeaseRevokes.Inc()
			d.met.ShardsAssigned.Add(-1)
		}
	}
	leases := make([]lease, newShards)
	for i := range leases {
		leases[i] = lease{epoch: maxEpoch + 1, round: round}
		if newData != nil {
			leases[i].checkpoint = newData[i]
		}
	}
	d.leases = leases
	d.cfg.Service.Shards = newShards
	d.configEpoch++
	if d.cfg.StateDir != "" {
		for i := range d.leases {
			if len(d.leases[i].checkpoint) == 0 {
				continue
			}
			if err := d.persistLocked(i); err != nil {
				return nil, err
			}
		}
		for i := newShards; i < old; i++ {
			_ = os.Remove(d.statePath(i)) // best-effort: a leftover stale file is re-detected (and refused) at next boot
		}
	}
	d.met.Reshards.Inc()
	return &serve.ReshardResponse{
		Schema:        serve.ReshardSchema,
		From:          old,
		Shards:        newShards,
		Epoch:         d.configEpoch,
		Round:         round,
		Moved:         moved,
		MigratedBytes: migrated,
		DurationNs:    d.now() - start,
	}, nil
}

// movedTenants counts the tenants whose shard assignment changes between the
// old and new ring — the migration volume a reshard reports.
func movedTenants(olds [][]byte, oldShards, newShards int) (int, error) {
	oldRing, err := serve.NewRing(oldShards)
	if err != nil {
		return 0, err
	}
	newRing, err := serve.NewRing(newShards)
	if err != nil {
		return 0, err
	}
	moved := 0
	for i, data := range olds {
		var cp struct {
			Tenants []struct {
				Name string `json:"name"`
			} `json:"tenants"`
		}
		if err := json.Unmarshal(data, &cp); err != nil {
			return 0, fmt.Errorf("dispatch: decoding shard %d checkpoint for reshard accounting: %w", i, err)
		}
		for _, tn := range cp.Tenants {
			if oldRing.ShardOf(tn.Name) != newRing.ShardOf(tn.Name) {
				moved++
			}
		}
	}
	return moved, nil
}

// Placement returns the current placement table, one entry per shard.
func (d *Dispatcher) Placement() *PlacementResponse {
	d.mu.Lock()
	defer d.mu.Unlock()
	resp := &PlacementResponse{Schema: WireSchema, Shards: make([]PlacementEntry, len(d.leases)), ConfigEpoch: d.configEpoch}
	for i := range d.leases {
		l := &d.leases[i]
		e := PlacementEntry{Shard: i, Epoch: l.epoch, Round: l.round}
		// A revoking lease is on its way out; advertising it would route new
		// traffic at a shard that is about to close.
		if l.worker != "" && !l.revoking {
			e.Worker = l.worker
			if w, ok := d.workers[l.worker]; ok {
				e.Addr = w.addr
			}
		}
		resp.Shards[i] = e
	}
	return resp
}

// StatsSchema versions the dispatcher /v1/stats response format.
const StatsSchema = "rrdispatch-stats/v1"

// WorkerStats is one worker row of the dispatcher stats.
type WorkerStats struct {
	Worker string `json:"worker"`
	Addr   string `json:"addr"`
	Alive  bool   `json:"alive"`
	Held   int    `json:"held"`
}

// StatsResponse is the body of the dispatcher's GET /v1/stats.
type StatsResponse struct {
	Schema   string        `json:"schema"`
	Shards   int           `json:"shards"`
	Assigned int           `json:"assigned"`
	Workers  []WorkerStats `json:"workers"`
	// Epoch is the config epoch: how many fleet reshards this dispatcher has
	// performed since boot.
	Epoch int64 `json:"epoch"`
}

// Stats assembles the dispatcher stats response. Workers are listed in name
// order.
func (d *Dispatcher) Stats() *StatsResponse {
	d.mu.Lock()
	defer d.mu.Unlock()
	resp := &StatsResponse{Schema: StatsSchema, Shards: len(d.leases), Epoch: d.configEpoch}
	heldBy := map[string]int{}
	for i := range d.leases {
		if d.leases[i].worker != "" {
			heldBy[d.leases[i].worker]++
			resp.Assigned++
		}
	}
	names := make([]string, 0, len(d.workers))
	for name := range d.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := d.workers[name]
		resp.Workers = append(resp.Workers, WorkerStats{
			Worker: name, Addr: w.addr, Alive: w.alive, Held: heldBy[name],
		})
	}
	return resp
}

// Metrics returns a snapshot of the dispatcher's metric registry.
func (d *Dispatcher) Metrics() *obs.Snapshot { return d.reg.Snapshot() }

// stateSchema versions the persisted per-shard checkpoint wrapper.
const stateSchema = "rrdispatch-state/v1"

// shardState is the on-disk wrapper around one shard's checkpoint. Shards
// records the fleet size the checkpoint was taken under (0 in files written
// before resizing existed, which are read as "the configured count"); a boot
// that finds a different count reshards the persisted set before granting.
type shardState struct {
	Schema string          `json:"schema"`
	Shard  int             `json:"shard"`
	Shards int             `json:"shards,omitempty"`
	Epoch  int64           `json:"epoch"`
	Round  int64           `json:"round"`
	Data   json.RawMessage `json:"data"`
}

func (d *Dispatcher) statePath(shard int) string {
	return filepath.Join(d.cfg.StateDir, fmt.Sprintf("shard-%04d.json", shard))
}

// persistLocked writes one shard's stored checkpoint atomically (tmp+rename).
// Caller holds d.mu.
func (d *Dispatcher) persistLocked(shard int) error {
	if err := os.MkdirAll(d.cfg.StateDir, 0o755); err != nil {
		return fmt.Errorf("dispatch: creating state dir: %w", err)
	}
	l := &d.leases[shard]
	data, err := json.Marshal(shardState{
		Schema: stateSchema, Shard: shard, Shards: len(d.leases),
		Epoch: l.epoch, Round: l.round, Data: l.checkpoint,
	})
	if err != nil {
		return fmt.Errorf("dispatch: encoding shard %d state: %w", shard, err)
	}
	if err := atomicio.WriteFile(d.statePath(shard), data, 0o644); err != nil {
		return fmt.Errorf("dispatch: writing shard %d state: %w", shard, err)
	}
	return nil
}

// loadState seeds the lease table from persisted checkpoints. When the
// persisted shard count matches the configured one, absent files are fine —
// shards that never checkpointed start fresh. When the counts differ (the
// dispatcher was rebooted into a new size), the complete persisted set is
// transformed through serve.ReshardCheckpoints at boot, exactly like a live
// reshard: the old epochs are fenced and the migrated set is persisted before
// any worker registers.
func (d *Dispatcher) loadState() error {
	idxs, err := d.scanStateDir()
	if err != nil {
		return err
	}
	if len(idxs) == 0 {
		return nil
	}
	states := map[int]*shardState{}
	diskShards := 0
	for _, i := range idxs {
		st, err := d.readShardState(i)
		if err != nil {
			return err
		}
		if st.Shards != 0 {
			if diskShards == 0 {
				diskShards = st.Shards
			} else if st.Shards != diskShards {
				return fmt.Errorf("dispatch: state files disagree on the shard count (%d vs %d)", diskShards, st.Shards)
			}
		}
		states[i] = st
	}
	if diskShards == 0 {
		// Files from before fleet resizing recorded no count; they were only
		// ever written under the configured one.
		diskShards = len(d.leases)
	}
	if last := idxs[len(idxs)-1]; last >= diskShards {
		return fmt.Errorf("dispatch: state file for shard %d exceeds the persisted shard count %d", last, diskShards)
	}
	if diskShards == len(d.leases) {
		for i, st := range states {
			d.leases[i] = lease{epoch: st.Epoch, round: st.Round, checkpoint: st.Data}
		}
		return nil
	}
	// Shard-count change across a restart: a partial set cannot be resharded
	// (a missing shard's tenants would silently vanish), so every old file
	// must be present, non-empty, and at one common round.
	old := make([][]byte, diskShards)
	var round, maxEpoch int64
	for i := 0; i < diskShards; i++ {
		st, ok := states[i]
		if !ok {
			return fmt.Errorf("dispatch: resizing %d persisted shards to %d needs the full set; shard %d state is missing", diskShards, len(d.leases), i)
		}
		if len(st.Data) == 0 {
			return fmt.Errorf("dispatch: resizing %d persisted shards to %d: shard %d has no checkpoint", diskShards, len(d.leases), i)
		}
		if i == 0 {
			round = st.Round
		} else if st.Round != round {
			return fmt.Errorf("dispatch: resizing persisted state: shard rounds diverge (shard 0 at %d, shard %d at %d)", round, i, st.Round)
		}
		if st.Epoch > maxEpoch {
			maxEpoch = st.Epoch
		}
		old[i] = st.Data
	}
	newData, err := serve.ReshardCheckpoints(old, len(d.leases))
	if err != nil {
		return fmt.Errorf("dispatch: resizing %d persisted shards to %d: %w", diskShards, len(d.leases), err)
	}
	for i := range d.leases {
		d.leases[i] = lease{epoch: maxEpoch + 1, round: round, checkpoint: newData[i]}
		if err := d.persistLocked(i); err != nil {
			return err
		}
	}
	for i := len(d.leases); i < diskShards; i++ {
		_ = os.Remove(d.statePath(i)) // stale count; re-detected at next boot if left behind
	}
	return nil
}

// scanStateDir lists the shard indices persisted in the state directory, in
// increasing order (empty when the directory is absent or holds no state
// files).
func (d *Dispatcher) scanStateDir() ([]int, error) {
	entries, err := os.ReadDir(d.cfg.StateDir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dispatch: scanning state dir: %w", err)
	}
	var idxs []int
	for _, e := range entries {
		var i int
		if n, err := fmt.Sscanf(e.Name(), "shard-%d.json", &i); err != nil || n != 1 {
			continue
		}
		if e.Name() != fmt.Sprintf("shard-%04d.json", i) {
			continue // tmp files and other near-misses are not state
		}
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	return idxs, nil
}

// readShardState reads and validates one persisted shard file. The error is
// os.IsNotExist-preserving so callers can distinguish absent from corrupt.
func (d *Dispatcher) readShardState(i int) (*shardState, error) {
	data, err := os.ReadFile(d.statePath(i))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, err
		}
		return nil, fmt.Errorf("dispatch: reading shard %d state: %w", i, err)
	}
	var st shardState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("dispatch: decoding shard %d state: %w", i, err)
	}
	if st.Schema != stateSchema {
		return nil, fmt.Errorf("dispatch: shard %d state schema %q, want %q", i, st.Schema, stateSchema)
	}
	if st.Shard != i {
		return nil, fmt.Errorf("dispatch: state file for shard %d claims shard %d", i, st.Shard)
	}
	return &st, nil
}
