package perf

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sync/atomic"

	"rrsched/internal/core"
	"rrsched/internal/model"
	"rrsched/internal/obs"
	"rrsched/internal/queue"
	"rrsched/internal/serve"
	"rrsched/internal/sim"
	"rrsched/internal/stream"
	"rrsched/internal/sweep"
	"rrsched/internal/workload"
)

// Scenario is one named benchmark: Setup builds the inputs once (excluded
// from measurement) and returns the op executed per benchmark iteration.
// Rounds is the number of simulated rounds — or unit operations — one op
// performs; all metrics are normalized by it.
type Scenario struct {
	Name   string
	Doc    string
	Rounds int64
	Setup  func() (func() error, error)
	// CheckpointBytes, if set, reports the size of the last checkpoint
	// payload the scenario pushed. The harness reads it right after Setup,
	// so the figure describes the warmed setup state and does not depend on
	// how many ops the measurement ran.
	CheckpointBytes func() int64
	// Teardown, if set, releases what Setup acquired outside the process
	// (temporary directories). The harness calls it once the op is done.
	Teardown func()
}

func (s Scenario) teardown() {
	if s.Teardown != nil {
		s.Teardown()
	}
}

func (s Scenario) checkpointBytes() int64 {
	if s.CheckpointBytes == nil {
		return 0
	}
	return s.CheckpointBytes()
}

// Scenarios returns the fixed benchmark matrix, in report order: the engine
// round loop and the ΔLRU-EDF decision path at n ∈ {8, 64, 512} over
// short/long-delay color mixes, the queue primitives, the streaming
// scheduler's push loop (fresh, 64 rounds after a burst, and an intermittent
// tenant's idle gaps) and checkpoint round-trip, one hosted serve shard's round with its checkpoint push, the
// sweep fan-out substrate (pinned to one worker so the figure is dispatch
// overhead, not parallel speedup), the incremental checkpoint store (full vs
// delta cuts at a dirty fraction, fault-in chain resolution, manifest
// codec), and the
// wire-codec matrix (JSON vs binary submit encode/decode at batch sizes
// 1/16/256, normalized per job).
func Scenarios() []Scenario {
	scs := []Scenario{
		engineScenario("engine/n8", 8, 6, 1, 4),
		engineScenario("engine/n64", 64, 48, 1, 6),
		engineScenario("engine/n512", 512, 256, 1, 6),
		obsEngineScenario("engine/n64/obs", 64, 48, 1, 6),
		policyScenario("policy/dlru-edf/n8", 8, 6, 1, 4),
		policyScenario("policy/dlru-edf/n64", 64, 48, 1, 6),
		policyScenario("policy/dlru-edf/n512", 512, 256, 1, 6),
		ringScenario(),
		bucketScenario(),
		streamPushScenario(),
		afterBurstScenario("stream/after-burst", afterBurstJobs),
		idleGapScenario(),
		streamCheckpointScenario(),
		streamStateScenario(),
		hostedTickScenario(),
		sweepScenario(),
	}
	scs = append(scs, ckptScenarios()...)
	scs = append(scs, wireScenarios()...)
	return scs
}

// Select returns the scenarios whose names match the regular expression
// (every scenario for an empty pattern).
func Select(pattern string) ([]Scenario, error) {
	all := Scenarios()
	if pattern == "" {
		return all, nil
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("perf: bad scenario pattern %q: %w", pattern, err)
	}
	var out []Scenario
	for _, s := range all {
		if re.MatchString(s.Name) {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("perf: no scenario matches %q", pattern)
	}
	return out, nil
}

// benchRounds is the arrival-round count of the simulated scenarios: long
// enough to reach steady state, short enough that one op stays well under a
// millisecond at n=8.
const benchRounds = 256

// benchWorkload builds the seeded short/long-delay color mix used by the
// engine and policy scenarios: delay bounds 2^minExp..2^maxExp, moderate
// load, fixed seed so every run measures the identical instance.
func benchWorkload(colors int, minExp, maxExp uint) (*model.Sequence, error) {
	return workload.RandomBatched(workload.RandomConfig{
		Seed:        1,
		Delta:       16,
		Colors:      colors,
		Rounds:      benchRounds,
		MinDelayExp: minExp,
		MaxDelayExp: maxExp,
		Load:        0.6,
	})
}

// cyclePolicy is a near-free policy for the engine-only scenarios: it
// rotates a window of Slots() colors through the universe every 8 rounds, so
// the engine's reconfiguration and execution phases do real work while the
// decision itself costs almost nothing.
type cyclePolicy struct {
	universe []model.Color
	slots    int
	buf      []model.Color
}

func (p *cyclePolicy) Name() string { return "cycle" }
func (p *cyclePolicy) Reset(env sim.Env) {
	p.universe = env.Seq.Colors()
	p.slots = env.Slots()
	p.buf = make([]model.Color, 0, p.slots)
}
func (p *cyclePolicy) DropPhase(sim.View, map[model.Color]int) {}
func (p *cyclePolicy) ArrivalPhase(sim.View, []model.Job)      {}
func (p *cyclePolicy) Target(v sim.View) []model.Color {
	p.buf = p.buf[:0]
	if len(p.universe) == 0 {
		return p.buf
	}
	off := int(v.Round() / 8)
	for i := 0; i < p.slots && i < len(p.universe); i++ {
		p.buf = append(p.buf, p.universe[(off+i)%len(p.universe)])
	}
	return p.buf
}

// runScenario builds a simulation scenario around the given policy factory.
func runScenario(name, doc string, n, colors int, minExp, maxExp uint, mk func() sim.Policy) Scenario {
	return Scenario{
		Name: name,
		Doc:  doc,
		// One op simulates rounds [0, Horizon()]; Horizon is bounded by
		// benchRounds + the largest delay bound, reported exactly below.
		Rounds: 0, // filled by Setup precomputation in Scenarios wrapper below
		Setup: func() (func() error, error) {
			seq, err := benchWorkload(colors, minExp, maxExp)
			if err != nil {
				return nil, err
			}
			env := sim.Env{Seq: seq, Resources: n, Replication: 2, Speed: 1}
			p := mk()
			return func() error {
				res, err := sim.Run(env, p)
				if err != nil {
					return err
				}
				if res.Executed+res.Dropped != seq.NumJobs() {
					return fmt.Errorf("job conservation violated: %d executed + %d dropped != %d jobs",
						res.Executed, res.Dropped, seq.NumJobs())
				}
				return nil
			}, nil
		},
	}
}

func engineScenario(name string, n, colors int, minExp, maxExp uint) Scenario {
	s := runScenario(name, "engine round loop (drop/arrival/reconfigure/execute) under a near-free rotating policy",
		n, colors, minExp, maxExp, func() sim.Policy { return &cyclePolicy{} })
	s.Rounds = scenarioHorizon(colors, minExp, maxExp)
	return s
}

// obsEngineScenario is the instrumented half of the bare-vs-instrumented
// pair: the same engine round loop as engineScenario, with a full Observer
// (scheduler metrics, span tracer, counting event sink) attached. Its figure
// against the bare twin is the all-in observability overhead; the bare
// scenarios' regression gate guards the nil-observer fast path.
func obsEngineScenario(name string, n, colors int, minExp, maxExp uint) Scenario {
	s := Scenario{
		Name:   name,
		Doc:    "engine round loop with the full observability layer attached (metrics + tracer + event sink)",
		Rounds: scenarioHorizon(colors, minExp, maxExp),
		Setup: func() (func() error, error) {
			seq, err := benchWorkload(colors, minExp, maxExp)
			if err != nil {
				return nil, err
			}
			o, err := obs.NewObserver()
			if err != nil {
				return nil, err
			}
			o.Tracer = obs.NewTracer(obs.DefaultTracerCap)
			o.Sink = &obs.CountingSink{}
			env := sim.Env{Seq: seq, Resources: n, Replication: 2, Speed: 1, Obs: o}
			p := &cyclePolicy{}
			return func() error {
				res, err := sim.Run(env, p)
				if err != nil {
					return err
				}
				if res.Executed+res.Dropped != seq.NumJobs() {
					return fmt.Errorf("job conservation violated: %d executed + %d dropped != %d jobs",
						res.Executed, res.Dropped, seq.NumJobs())
				}
				return nil
			}, nil
		},
	}
	return s
}

func policyScenario(name string, n, colors int, minExp, maxExp uint) Scenario {
	s := runScenario(name, "full ΔLRU-EDF decision path (tracker bookkeeping, timestamp and EDF ranking) per round",
		n, colors, minExp, maxExp, func() sim.Policy { return core.NewDeltaLRUEDF() })
	s.Rounds = scenarioHorizon(colors, minExp, maxExp)
	return s
}

// scenarioHorizon returns the exact number of simulated rounds of the seeded
// scenario workload (Horizon()+1), so per-round normalization is accurate.
func scenarioHorizon(colors int, minExp, maxExp uint) int64 {
	seq, err := benchWorkload(colors, minExp, maxExp)
	if err != nil {
		// The fixed configurations are statically valid; a failure here is
		// reported by Setup when the scenario actually runs.
		return 1
	}
	return seq.Horizon() + 1
}

const queueOps = 4096

func ringScenario() Scenario {
	return Scenario{
		Name:   "queue/ring",
		Doc:    "FIFO ring buffer push/pop cycles (the per-color pending queues)",
		Rounds: queueOps,
		Setup: func() (func() error, error) {
			job := model.Job{ID: 1, Color: 3, Arrival: 0, Delay: 8}
			var r queue.Ring[model.Job]
			return func() error {
				for i := 0; i < queueOps; i++ {
					r.Push(job)
					if i%4 == 3 {
						for j := 0; j < 4; j++ {
							r.Pop()
						}
					}
				}
				if r.Len() != 0 {
					return fmt.Errorf("ring not drained: %d left", r.Len())
				}
				return nil
			}, nil
		},
	}
}

func bucketScenario() Scenario {
	return Scenario{
		Name:   "queue/bucket",
		Doc:    "monotone bucket-queue push/PopUpTo cycles (the deadline index)",
		Rounds: queueOps,
		Setup: func() (func() error, error) {
			const perRound = 16
			return func() error {
				q := queue.NewBucketQueue[int]()
				popped := 0
				for r := int64(0); r < queueOps/perRound; r++ {
					for i := 0; i < perRound; i++ {
						q.Push(r+4, i)
					}
					popped += len(q.PopUpTo(r, perRound))
				}
				for q.Len() > 0 {
					q.PopMin()
					popped++
				}
				if popped != queueOps {
					return fmt.Errorf("bucket queue lost items: popped %d of %d", popped, queueOps)
				}
				return nil
			}, nil
		},
	}
}

// streamJobs builds the per-round arrivals of the streaming scenarios: a
// rotating color with delay 8, two jobs per round.
func streamJobs(rounds int64) [][]model.Job {
	out := make([][]model.Job, rounds)
	id := int64(0)
	for r := int64(0); r < rounds; r++ {
		for j := 0; j < 2; j++ {
			out[r] = append(out[r], model.Job{ID: id, Color: model.Color(r % 8), Arrival: r, Delay: 8})
			id++
		}
	}
	return out
}

func streamPushScenario() Scenario {
	return Scenario{
		Name:   "stream/push",
		Doc:    "streaming scheduler round loop: Push per round plus final Drain",
		Rounds: benchRounds,
		Setup: func() (func() error, error) {
			arrivals := streamJobs(benchRounds)
			return func() error {
				s, err := stream.New(stream.Config{Delta: 16, Resources: 8})
				if err != nil {
					return err
				}
				for r := int64(0); r < benchRounds; r++ {
					if _, err := s.Push(r, arrivals[r]); err != nil {
						return err
					}
				}
				_, err = s.Drain()
				return err
			}, nil
		},
	}
}

// afterBurstJobs is the size of the stream/after-burst scenario's burst;
// afterBurstRounds is its op length and the setup's quiet stretch after the
// burst.
const (
	afterBurstJobs   = 20000
	afterBurstRounds = 64
)

// afterBurstScenario measures the steady per-round Push cost of a tenant
// that once sent burstJobs jobs of one colour. The burst splits into
// burstJobs/8 Distribute subcolours that stay registered after it drains, so
// this row shows whether a round's cost follows the active colours or every
// colour ever seen. Setup pushes the burst (round 0, delay 16) and the 64
// quiet rounds after it; each op pushes the next 64 rounds of the
// stream/push traffic. burstJobs = 0 is the same tenant without the burst.
func afterBurstScenario(name string, burstJobs int) Scenario {
	return Scenario{
		Name:   name,
		Doc:    fmt.Sprintf("streaming Push per round, 64 rounds after a %d-job single-colour burst", burstJobs),
		Rounds: afterBurstRounds,
		Setup: func() (func() error, error) {
			s, err := stream.New(stream.Config{Delta: 16, Resources: 8})
			if err != nil {
				return nil, err
			}
			id := int64(0)
			var jobs []model.Job
			push := func(r int64, burst int) error {
				jobs = jobs[:0]
				for j := 0; j < 2; j++ {
					jobs = append(jobs, model.Job{ID: id, Color: model.Color(r % 8), Arrival: r, Delay: 8})
					id++
				}
				for j := 0; j < burst; j++ {
					jobs = append(jobs, model.Job{ID: id, Color: 8, Arrival: r, Delay: 16})
					id++
				}
				_, err := s.Push(r, jobs)
				return err
			}
			if err := push(0, burstJobs); err != nil {
				return nil, err
			}
			for r := int64(1); r <= afterBurstRounds; r++ {
				if err := push(r, 0); err != nil {
					return nil, err
				}
			}
			return func() error {
				for i := 0; i < afterBurstRounds; i++ {
					if err := push(s.Round(), 0); err != nil {
						return err
					}
				}
				return nil
			}, nil
		},
	}
}

// idleGap* shape the stream/idle-gap scenario after one tenant of the
// paging benchmark: Δ=4, n=8, a batch of 4 jobs over 4 colours with delay
// bound 4 every idleGapPeriod rounds, and a push in every round between.
const (
	idleGapPeriod = 97
	idleGapJobs   = 4
	idleGapDelay  = 4
)

// idleGapScenario measures the per-round Push cost of an intermittent
// tenant: each op pushes one batch and then the idleGapPeriod-1 empty rounds
// up to the next one, as a shard tick does for a resident tenant. Setup runs
// one period so the op starts from a warmed scheduler.
func idleGapScenario() Scenario {
	return Scenario{
		Name:   "stream/idle-gap",
		Doc:    fmt.Sprintf("streaming Push per round of a tenant sending %d jobs every %d rounds (paging-shaped)", idleGapJobs, idleGapPeriod),
		Rounds: idleGapPeriod,
		Setup: func() (func() error, error) {
			s, err := stream.New(stream.Config{Delta: 4, Resources: 8})
			if err != nil {
				return nil, err
			}
			id := int64(0)
			jobs := make([]model.Job, idleGapJobs)
			period := func() error {
				r := s.Round()
				for k := range jobs {
					jobs[k] = model.Job{ID: id, Color: model.Color(k), Arrival: r, Delay: idleGapDelay}
					id++
				}
				if _, err := s.Push(r, jobs); err != nil {
					return err
				}
				for i := int64(1); i < idleGapPeriod; i++ {
					if _, err := s.Push(r+i, nil); err != nil {
						return err
					}
				}
				return nil
			}
			if err := period(); err != nil {
				return nil, err
			}
			return period, nil
		},
	}
}

func streamCheckpointScenario() Scenario {
	return Scenario{
		Name:   "stream/checkpoint",
		Doc:    "Snapshot + Restore round-trip of a warmed streaming scheduler (rounds_per_op = 1: figures are per checkpoint)",
		Rounds: 1,
		Setup: func() (func() error, error) {
			s, err := stream.New(stream.Config{Delta: 16, Resources: 8})
			if err != nil {
				return nil, err
			}
			for r, jobs := range streamJobs(benchRounds) {
				if _, err := s.Push(int64(r), jobs); err != nil {
					return nil, err
				}
			}
			return func() error {
				snap, err := s.Snapshot()
				if err != nil {
					return err
				}
				_, err = stream.Restore(snap)
				return err
			}, nil
		},
	}
}

// streamStateScenario is stream/checkpoint through the binary state image
// instead of the JSON debug view: the round trip every chunk write, fault-in
// and hosted push pays per tenant.
func streamStateScenario() Scenario {
	return Scenario{
		Name:   "stream/state",
		Doc:    "AppendState + RestoreState round-trip of the stream/checkpoint scheduler (rounds_per_op = 1: figures are per checkpoint)",
		Rounds: 1,
		Setup: func() (func() error, error) {
			s, err := stream.New(stream.Config{Delta: 16, Resources: 8})
			if err != nil {
				return nil, err
			}
			for r, jobs := range streamJobs(benchRounds) {
				if _, err := s.Push(int64(r), jobs); err != nil {
					return nil, err
				}
			}
			var buf []byte
			return func() error {
				var err error
				if buf, err = s.AppendState(buf[:0]); err != nil {
					return err
				}
				_, err = stream.RestoreState(buf)
				return err
			}, nil
		},
	}
}

// hostedTick* shape the serve/hosted-tick scenario after the fleet
// benchmark's steady tenants: 8 colours with delay bound 2^(2 + c mod 4),
// load 0.6, on a Δ=4, n=8 shard. Each tenant's arrivals repeat with period
// hostedTickPeriod rounds (job IDs keep rising), and setup runs
// hostedTickWarmup rounds so the op measures a warmed shard.
const (
	hostedTickTenants = 4
	hostedTickColors  = 8
	hostedTickPeriod  = 256
	hostedTickWarmup  = 64
)

// hostedTickScenario measures one round of a hosted shard as a worker runs
// it: every tenant's arrivals for the round go through the service's HTTP
// handler (binary frames, no socket), then Service.TickShardTo advances the
// shard to the next round, which pushes its flat checkpoint to
// OnShardCheckpoint. The hook records the payload size; checkpoint_bytes is
// the last warmup round's. The service lives for the whole process:
// scenarios have no teardown.
func hostedTickScenario() Scenario {
	var ckptBytes atomic.Int64
	return Scenario{
		Name:            "serve/hosted-tick",
		Doc:             "hosted shard round: 4 steady tenants submit through the handler, then TickShardTo pushes the flat checkpoint (figures per round)",
		Rounds:          1,
		CheckpointBytes: ckptBytes.Load,
		Setup: func() (func() error, error) {
			svc, _, err := serve.New(serve.Config{Shards: 1, Resources: 8, Delta: 4, Watermark: 1 << 16, Hosted: true,
				OnShardCheckpoint: func(_ int, _ int64, data []byte) error {
					ckptBytes.Store(int64(len(data)))
					return nil
				}})
			if err != nil {
				return nil, err
			}
			if _, err := svc.OpenShard(0, nil); err != nil {
				return nil, err
			}
			colors := make([][][]model.Color, hostedTickTenants)
			for t := range colors {
				seq, err := workload.RandomGeneral(workload.RandomConfig{
					Seed: int64(t + 1), Delta: 4, Colors: hostedTickColors, Rounds: hostedTickPeriod,
					MinDelayExp: 2, MaxDelayExp: 5, Load: 0.6,
				})
				if err != nil {
					return nil, err
				}
				colors[t] = make([][]model.Color, hostedTickPeriod)
				for r := range colors[t] {
					for _, j := range seq.Request(int64(r)) {
						colors[t][r] = append(colors[t][r], j.Color)
					}
				}
			}
			h := svc.Handler()
			names := make([]string, hostedTickTenants)
			for t := range names {
				names[t] = fmt.Sprintf("tenant-%03d", t)
			}
			nextID := make([]int64, hostedTickTenants)
			req := serve.SubmitRequest{Schema: serve.WireSchema}
			var frame []byte
			round := 0
			step := func() error {
				for t := range colors {
					cs := colors[t][round%hostedTickPeriod]
					if len(cs) == 0 {
						continue
					}
					req.Tenant, req.Jobs = names[t], req.Jobs[:0]
					for _, c := range cs {
						req.Jobs = append(req.Jobs, serve.SubmitJob{ID: nextID[t], Color: int32(c), Delay: 1 << (2 + c%4)})
						nextID[t]++
					}
					var err error
					if frame, err = serve.AppendSubmitBinary(frame[:0], &req); err != nil {
						return err
					}
					hr := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(frame))
					hr.Header.Set("Content-Type", serve.ContentTypeBinary)
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, hr)
					if rec.Code != http.StatusOK {
						return fmt.Errorf("submit %s: status %d: %s", req.Tenant, rec.Code, rec.Body.Bytes())
					}
				}
				round++
				_, err := svc.TickShardTo(0, int64(round))
				return err
			}
			for i := 0; i < hostedTickWarmup; i++ {
				if err := step(); err != nil {
					return nil, err
				}
			}
			return step, nil
		},
	}
}

const sweepTasks = 256

func sweepScenario() Scenario {
	return Scenario{
		Name:   "sweep/fanout",
		Doc:    "sweep.Map dispatch overhead over trivial tasks, pinned to one worker for stable figures",
		Rounds: sweepTasks,
		Setup: func() (func() error, error) {
			inputs := sweep.Seeds(sweepTasks)
			return func() error {
				out, err := sweep.Map(1, inputs, func(seed int64) (int64, error) {
					// A tiny deterministic mix so the task body is not
					// optimized away; the figure of interest is dispatch.
					x := uint64(seed)*2654435761 + 1
					for i := 0; i < 32; i++ {
						x ^= x << 13
						x ^= x >> 7
						x ^= x << 17
					}
					return int64(x >> 1), nil
				})
				if err != nil {
					return err
				}
				if len(out) != sweepTasks {
					return fmt.Errorf("sweep returned %d results, want %d", len(out), sweepTasks)
				}
				return nil
			}, nil
		},
	}
}
