// Command e2ebench is the repository's end-to-end serving benchmark. It runs
// one seeded, closed-loop workload against the system in process (wire →
// handler → shard → stream.Scheduler → checkpoint store → dispatch driver),
// checks every served decision against bare stream.Scheduler oracles, and
// prints each metric by name and unit. The last line of its output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	e2ebench --workload burst|paging|fleet --seed N --seconds S --trace 0|1
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics, taken from traced episodes and replays. See
// README.md for the workloads and the layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"

	"rrsched/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one run's parameters.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for state dirs and the trace file
	sc       scale
	conns    int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{conns: min(2, runtime.NumCPU())}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: burst, paging or fleet")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "seconds of timed episodes to run")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from traced episodes and replays; 0 reports end-to-end metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for state dirs and trace output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds <= 0 {
		_, _ = fmt.Fprintln(stderr, "e2ebench: usage: --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	o.trace = trace == 1
	sc, ok := defaultScale[o.workload]
	if !ok {
		_, _ = fmt.Fprintf(stderr, "e2ebench: unknown workload %q (want burst, paging or fleet)\n", o.workload)
		return 2
	}
	o.sc = sc
	rep, err := bench(o, stdout)
	if err != nil {
		_, _ = fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	if err := rep.print(stdout, o.trace); err != nil {
		_, _ = fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	if !rep.correct {
		_, _ = fmt.Fprintln(stderr, "e2ebench: served decisions differ from the oracle")
		return 1
	}
	return 0
}

// budgetNs caps a run's wall time before it stops starting episodes, so a run
// ends well inside three minutes even on a slow machine.
const budgetNs = 120e9

// setupSamples is how many times a run builds its system, at least. Every
// episode builds one; single-service runs add cheap extra builds so setup_s
// is a median of several.
const setupSamples = 7

// bench runs one workload: a verify episode with decision recording, then
// timed episodes until o.seconds of them have run, then (when tracing) the
// per-layer replays.
func bench(o options, log io.Writer) (*report, error) {
	begin := obs.Now()
	p, err := buildPlan(o.workload, o.seed, o.sc)
	if err != nil {
		return nil, err
	}
	arr := tenantArrivals(p)
	work := partition(p, o.conns)
	stateRoot := filepath.Join(o.out, fmt.Sprintf("state-%d", os.Getpid()))
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(stateRoot) // best effort: the state dirs are scratch
	rep := &report{correct: true, machine: machineInfo(stateRoot)}
	_, _ = fmt.Fprintf(log, "workload %s seed %d: %d tenants, %d rounds, %d batches, %d jobs, %d submit conns\n",
		p.name, o.seed, len(p.tenants), p.total, p.batches(), p.jobs(), o.conns)
	dirs := 0
	newDir := func() string {
		dirs++
		return filepath.Join(stateRoot, fmt.Sprintf("ep-%d", dirs))
	}
	var setups []int64
	start := func(record bool, dir string) (system, error) {
		t0 := obs.Now()
		sys, err := startSystem(p, o.conns, record, dir)
		if err == nil {
			setups = append(setups, obs.Now()-t0)
		}
		return sys, err
	}

	// Verify pass, untimed: record every decision and match each tenant's
	// stream against its oracle.
	vdir := newDir()
	sys, err := start(true, vdir)
	if err != nil {
		return nil, err
	}
	ve, err := runEpisode(sys, p, work, nil)
	if err != nil {
		_, _ = sys.close()
		return nil, err
	}
	want, verr := verifyStreams(p, arr, sys.decisions, nil)
	if _, err := sys.close(); err != nil {
		return nil, err
	}
	_ = os.RemoveAll(vdir) // scratch; the root is removed at exit as well
	if verr != nil {
		rep.fail("verify: %v", verr)
	}
	rep.check("verify", ve, want)
	rep.set("run.verify_s", float64(obs.Now()-begin)/1e9)

	// Timed episodes, each on a fresh system. When tracing, traced and
	// untraced episodes alternate so the overhead is measured in one run.
	tr := &tracer{}
	var untraced, traced []*episode
	var timedNs int64
	for i := 0; ; i++ {
		measured := len(untraced) > 0 && (!o.trace || len(traced) > 0)
		if measured && (float64(timedNs) >= o.seconds*1e9 || obs.Now()-begin > budgetNs) {
			break
		}
		traceThis := o.trace && i%2 == 1
		// Start each episode from the same state: garbage collected, and
		// the previous episode's chunk files written back, so its disk
		// writeback does not land inside this one's rounds.
		runtime.GC()
		debug.FreeOSMemory()
		syscall.Sync()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		dir := newDir()
		sys, err := start(false, dir)
		if err != nil {
			return nil, err
		}
		var etr *tracer
		if traceThis {
			etr = tr
		}
		e, err := runEpisode(sys, p, work, etr)
		if err != nil {
			_, _ = sys.close()
			return nil, err
		}
		if e.drainNs, err = sys.close(); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms1)
		e.allocBytes = int64(ms1.TotalAlloc - ms0.TotalAlloc)
		e.gcCycles = int64(ms1.NumGC - ms0.NumGC)
		e.gcPauseNs = int64(ms1.PauseTotalNs - ms0.PauseTotalNs)
		e.stateBytes, e.stateFiles = dirUsage(dir)
		_ = os.RemoveAll(dir) // scratch; the root is removed at exit as well
		rep.check(fmt.Sprintf("episode %d", i+1), e, want)
		timedNs += e.elapsedNs
		if traceThis {
			traced = append(traced, e)
		} else {
			untraced = append(untraced, e)
		}
	}
	for len(setups) < setupSamples && !p.fleet {
		sys, err := start(false, newDir())
		if err != nil {
			return nil, err
		}
		if _, err := sys.close(); err != nil {
			return nil, err
		}
	}

	rep.set("run.timed_s", float64(timedNs)/1e9)
	rep.endToEnd(untraced, setups)
	if o.trace {
		if err := rep.perLayer(p, arr, untraced, traced, tr, newDir()); err != nil {
			return nil, err
		}
		path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", p.name, o.seed))
		if err := writeTrace(path, rep.machine, tr.spans); err != nil {
			return nil, err
		}
		_, _ = fmt.Fprintf(log, "trace: %d spans written to %s\n", len(tr.spans), path)
	}
	rep.set("run.wall_s", float64(obs.Now()-begin)/1e9)
	return rep, nil
}

// report accumulates a run's verdict and metrics.
type report struct {
	correct           bool
	problems          []string
	attempted, failed int64
	machine           machine
	values            map[string]float64
	notes             []string
}

func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// check folds an episode's operations into the counts and fails the run if
// its served totals differ from the oracle's.
func (r *report) check(what string, e *episode, want totals) {
	r.attempted += e.sub.batches + e.ticks
	r.failed += e.sub.failed() + e.tickFails
	if e.served.totals != want {
		r.fail("%s: served totals %+v, oracle %+v", what, e.served.totals, want)
	}
	if e.dispSnap != nil {
		if n, _ := e.dispSnap.Counter(obs.MetricFailovers); n > 0 {
			r.failed += n
			r.notes = append(r.notes, fmt.Sprintf("%s: %d failovers", what, n))
		}
	}
}

func (r *report) set(name string, v float64) {
	if r.values == nil {
		r.values = map[string]float64{}
	}
	r.values[name] = v
}

// print writes every metric the run measured, one per line, then the JSON
// result line carrying the end-to-end or the per-layer set.
func (r *report) print(w io.Writer, trace bool) error {
	m, _ := json.Marshal(r.machine) // a struct of numbers and strings always encodes
	_, _ = fmt.Fprintf(w, "machine %s\n", m)
	for _, p := range r.problems {
		_, _ = fmt.Fprintf(w, "FAIL %s\n", p)
	}
	for _, n := range r.notes {
		_, _ = fmt.Fprintf(w, "note %s\n", n)
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		_, _ = fmt.Fprintf(w, "metric %-40s %14.6g %s\n", n, r.values[n], unitOf(n))
	}
	set := endToEndMetrics
	if trace {
		set = perLayerMetrics
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for _, d := range set {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
