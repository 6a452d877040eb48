package main

import (
	"fmt"
	"sort"

	"rrsched/internal/obs"
	"rrsched/internal/serve"
)

// metricDef names one reported metric and its unit. The two lists below are
// the JSON result's metric sets and must match BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"submit_us_p50", "us"},
	{"cpu_us_per_job", "us"},
	{"drop_frac", "fraction"},
	{"cost_per_job", "cost/job"},
	{"peak_rss_mib", "MiB"},
}

var perLayerMetrics = []metricDef{
	{"serve.wire.encode_ns_per_job", "ns"},
	{"serve.wire.decode_ns_per_job", "ns"},
	{"serve.handler.submit_us_p50", "us"},
	{"serve.handler.submit_us_p99", "us"},
	{"serve.transport.submit_us_p50", "us"},
	{"serve.admit_us_mean", "us"},
	{"serve.submit.rejected", "count"},
	{"serve.submit.refused", "count"},
	{"serve.submit.duplicate_first_send", "count"},
	{"serve.submit.errors", "count"},
	{"serve.tick_us_p50", "us"},
	{"serve.tick_us_p99", "us"},
	{"serve.tick_shard_us_mean", "us"},
	{"serve.resident_tenants_mean", "count"},
	{"stream.push_us_per_round_p50", "us"},
	{"stream.push_us_per_round_p99", "us"},
	{"stream.push_us_slowest_tenant_p99", "us"},
	{"stream.pushes", "count"},
	{"stream.jobs", "count"},
	{"ckpt.evictions", "count"},
	{"ckpt.faultins", "count"},
	{"ckpt.warm_submit_us_p50", "us"},
	{"ckpt.chunks_written", "count"},
	{"ckpt.chunk_bytes", "bytes"},
	{"ckpt.dedup_ratio", "fraction"},
	{"ckpt.state_bytes", "bytes"},
	{"ckpt.state_files", "count"},
	{"dispatch.push_bytes_per_round", "bytes"},
	{"dispatch.pushes_per_round", "count"},
	{"dispatch.failovers", "count"},
	{"dispatch.heartbeats", "count"},
	{"proc.alloc_bytes_per_job", "bytes"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_ms_total", "ms"},
	{"trace.round_self_ms", "ms"},
	{"trace.submit_ms", "ms"},
	{"trace.tick_ms", "ms"},
	{"trace.accounted_frac", "fraction"},
	{"trace.overhead_frac", "fraction"},
}

// reportOnly are metrics printed in the report but left out of the JSON:
// they are measured only on some workloads, or spread too much from run to
// run on a shared machine to gate on.
var reportOnly = []metricDef{
	{"round_ms_p50", "ms"},
	{"jobs_per_s", "1/s"},
	{"round_ms_p90", "ms"},
	{"submit_us_p90", "us"},
	{"round_ms_p50_median_episode", "ms"},
	{"round_ms_p99", "ms"},
	{"submit_us_p99", "us"},
	{"failed_frac", "fraction"},
	{"rounds_timed", "count"},
	{"episodes", "count"},
	{"ckpt.faultin_submit_us_p50", "us"},
	{"ckpt.faultin_submit_us_p99", "us"},
	{"ckpt.fault_in_us_mean", "us"},
	{"ckpt.drain_cut_ms", "ms"},
	{"stream.push_ms_total", "ms"},
	{"trace.rounds", "count"},
	{"trace.self_ms_per_round.round", "ms"},
	{"trace.self_ms_per_round.submit", "ms"},
	{"trace.self_ms_per_round.tick", "ms"},
	{"trace.self_ms_per_round.wire.encode", "ms"},
	{"trace.self_ms_per_round.wire.decode", "ms"},
	{"trace.self_ms_per_round.handler.submit", "ms"},
	{"trace.self_ms_per_round.stream.push", "ms"},
	{"run.verify_s", "s"},
	{"run.timed_s", "s"},
	{"run.wall_s", "s"},
}

func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEndMetrics, perLayerMetrics, reportOnly} {
		for _, d := range set {
			if d.name == name {
				return d.unit
			}
		}
	}
	return "?"
}

const (
	usPerNs  = 1e-3
	msPerNs  = 1e-6
	mibBytes = 1 << 20
)

// pooled concatenates one per-episode sample set across episodes.
func pooled(eps []*episode, f func(*episode) []int64) []int64 {
	var out []int64
	for _, e := range eps {
		out = append(out, f(e)...)
	}
	return out
}

// endToEnd computes the untraced metrics. Each timing is taken per episode,
// and the run reports its best episode: the host takes CPU away from this VM
// in bursts of seconds, and the best episode is the one it disturbed least.
// Work a change adds to every round slows every episode, the best one too.
// CPU time, which excludes what the host takes, is a median over episodes.
func (r *report) endToEnd(eps []*episode, setups []int64) {
	r.set("setup_s", float64(quantile(setups, 0.5))/1e9)
	perEp := func(f func(*episode) float64) []float64 {
		vs := make([]float64, len(eps))
		for i, e := range eps {
			vs[i] = f(e)
		}
		sort.Float64s(vs)
		return vs
	}
	best := func(f func(*episode) float64) float64 { return perEp(f)[0] }
	r.set("episodes", float64(len(eps)))
	rates := perEp(func(e *episode) float64 { return rate([]*episode{e}) })
	r.set("jobs_per_s", rates[len(rates)-1])
	r.set("round_ms_p50", best(func(e *episode) float64 { return float64(quantile(e.roundNs, 0.5)) * msPerNs }))
	r.set("round_ms_p90", best(func(e *episode) float64 { return float64(quantile(e.roundNs, 0.9)) * msPerNs }))
	r.set("submit_us_p50", best(func(e *episode) float64 { return float64(quantile(e.submitNs(), 0.5)) * usPerNs }))
	r.set("submit_us_p90", best(func(e *episode) float64 { return float64(quantile(e.submitNs(), 0.9)) * usPerNs }))
	r.set("cpu_us_per_job", medianF(perEp(func(e *episode) float64 { return float64(e.cpuNs) * usPerNs / float64(e.sub.accepted) })))
	r.set("peak_rss_mib", medianF(perEp(func(e *episode) float64 { return float64(e.peakRSS) / mibBytes })))
	r.set("round_ms_p50_median_episode", medianF(perEp(func(e *episode) float64 { return float64(quantile(e.roundNs, 0.5)) * msPerNs })))
	// The 99th percentiles pool every episode's samples: one episode has
	// too few rounds beyond its own p99.
	rounds := pooled(eps, func(e *episode) []int64 { return e.roundNs })
	r.set("rounds_timed", float64(len(rounds)))
	r.set("round_ms_p99", float64(quantile(rounds, 0.99))*msPerNs)
	r.set("submit_us_p99", float64(quantile(pooled(eps, (*episode).submitNs), 0.99))*usPerNs)
	var failed, attempted int64
	for _, e := range eps {
		failed += e.sub.failed() + e.tickFails
		attempted += e.sub.batches + e.ticks
	}
	r.set("failed_frac", float64(failed)/float64(attempted))
	// Decisions repeat exactly across episodes (check enforces it), so the
	// first episode's totals stand for all.
	first := eps[0]
	r.set("drop_frac", first.served.dropFrac())
	r.set("cost_per_job", first.served.costPerJob(first.sub.accepted))
}

// medianF is the median of sorted values.
func medianF(vs []float64) float64 {
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// histMeanUs is a histogram's mean in microseconds (0 when empty).
func histMeanUs(s *obs.Snapshot, name string) float64 {
	h, ok := s.Histogram(name)
	if !ok || h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count) * usPerNs
}

func counter(s *obs.Snapshot, name string) int64 {
	if s == nil {
		return 0
	}
	v, _ := s.Counter(name)
	return v
}

// perLayer computes the traced metrics: layer times from the traced
// episodes' spans and the program's own counters, plus replays of the
// codec, the handler and bare stream.Scheduler over the same arrivals.
func (r *report) perLayer(p *plan, arr []arrivals, untraced, traced []*episode, tr *tracer, replayDir string) error {
	e := traced[0]
	jobs := p.jobs()

	// serve: wire codec, handler, transport, admission, tick.
	encNs, decNs, err := wireReplay(p, tr)
	if err != nil {
		return err
	}
	r.set("serve.wire.encode_ns_per_job", float64(encNs)/float64(jobs))
	r.set("serve.wire.decode_ns_per_job", float64(decNs)/float64(jobs))
	hl, err := handlerReplay(p, replayDir, tr)
	if err != nil {
		return err
	}
	hp50 := quantile(hl, 0.5)
	r.set("serve.handler.submit_us_p50", float64(hp50)*usPerNs)
	r.set("serve.handler.submit_us_p99", float64(quantile(hl, 0.99))*usPerNs)
	client := pooled(untraced, func(e *episode) []int64 { return e.submitNs() })
	r.set("serve.transport.submit_us_p50", float64(quantile(client, 0.5)-hp50)*usPerNs)
	r.set("serve.admit_us_mean", histMeanUs(e.snap, serve.MetricSubmitNs))
	var sub submitStats
	for _, x := range append(append([]*episode(nil), untraced...), traced...) {
		sub.add(x.sub)
	}
	r.set("serve.submit.rejected", float64(sub.rejected))
	r.set("serve.submit.refused", float64(sub.refused))
	r.set("serve.submit.duplicate_first_send", float64(sub.duplicate))
	r.set("serve.submit.errors", float64(sub.errors+sub.other))
	ticks := pooled(traced, func(e *episode) []int64 { return e.tickNs })
	r.set("serve.tick_us_p50", float64(quantile(ticks, 0.5))*usPerNs)
	r.set("serve.tick_us_p99", float64(quantile(ticks, 0.99))*usPerNs)
	r.set("serve.tick_shard_us_mean", histMeanUs(e.snap, serve.MetricTickNs))
	r.set("serve.resident_tenants_mean", mean(e.residents))

	// stream, with core ΔLRU-EDF inside it.
	perRound, slowest, pushes, sum, err := streamReplay(p, arr, tr)
	if err != nil {
		return err
	}
	if sum != e.served.totals {
		r.fail("stream replay: totals %+v, served %+v", sum, e.served.totals)
	}
	var pushTotal int64
	for _, ns := range perRound {
		pushTotal += ns
	}
	r.set("stream.push_ms_total", float64(pushTotal)*msPerNs)
	r.set("stream.push_us_per_round_p50", float64(quantile(perRound, 0.5))*usPerNs)
	r.set("stream.push_us_per_round_p99", float64(quantile(perRound, 0.99))*usPerNs)
	r.set("stream.push_us_slowest_tenant_p99", float64(quantile(slowest, 0.99))*usPerNs)
	r.set("stream.pushes", float64(pushes))
	r.set("stream.jobs", float64(jobs))

	// ckptstore, through serve paging. Every fault-in follows an eviction,
	// and the gauge holds the tenants still paged out at the end.
	faultins := counter(e.snap, "ckpt_fault_ins_total")
	r.set("ckpt.faultins", float64(faultins))
	r.set("ckpt.evictions", float64(faultins+int64(e.served.evicted)))
	r.set("ckpt.warm_submit_us_p50", float64(quantile(pooled(traced, func(e *episode) []int64 { return e.warmNs }), 0.5))*usPerNs)
	cold := pooled(traced, func(e *episode) []int64 { return e.coldNs })
	r.set("ckpt.faultin_submit_us_p50", float64(quantile(cold, 0.5))*usPerNs)
	r.set("ckpt.faultin_submit_us_p99", float64(quantile(cold, 0.99))*usPerNs)
	r.set("ckpt.fault_in_us_mean", histMeanUs(e.snap, "ckpt_fault_in_ns"))
	written, deduped := counter(e.snap, "ckpt_chunks_written_total"), counter(e.snap, "ckpt_chunks_deduped_total")
	r.set("ckpt.chunks_written", float64(written))
	r.set("ckpt.chunk_bytes", float64(counter(e.snap, "ckpt_chunk_bytes_total")))
	r.set("ckpt.dedup_ratio", ratio(deduped, written+deduped))
	r.set("ckpt.state_bytes", float64(e.stateBytes))
	r.set("ckpt.state_files", float64(e.stateFiles))
	r.set("ckpt.drain_cut_ms", float64(e.drainNs)*msPerNs)

	// dispatch: checkpoint pushes per round, failovers, heartbeats.
	var pushBytes int64
	if e.dispSnap != nil {
		if h, ok := e.dispSnap.Histogram(obs.MetricCheckpointBytes); ok {
			pushBytes = h.Sum
		}
	}
	r.set("dispatch.push_bytes_per_round", float64(pushBytes)/float64(p.total))
	r.set("dispatch.pushes_per_round", float64(counter(e.dispSnap, obs.MetricCheckpoints))/float64(p.total))
	r.set("dispatch.failovers", float64(counter(e.dispSnap, obs.MetricFailovers)))
	r.set("dispatch.heartbeats", float64(counter(e.dispSnap, obs.MetricHeartbeats)))

	// process, over the traced episode.
	r.set("proc.alloc_bytes_per_job", float64(e.allocBytes)/float64(e.sub.accepted))
	r.set("proc.gc_cycles", float64(e.gcCycles))
	r.set("proc.gc_pause_ms_total", float64(e.gcPauseNs)*msPerNs)

	// Attribution: split the median traced round's wall time into submit,
	// tick and the benchmark's own loop, and compare the sum with the
	// untraced round_ms_p50.
	var roundSpans []span
	for _, s := range tr.spans {
		if s.Name == "round" || s.Name == "submit" || s.Name == "tick" || s.Name == "driver.round" {
			roundSpans = append(roundSpans, s)
		}
	}
	shares := roundShares(roundSpans)
	r.set("trace.rounds", float64(len(shares)))
	med := medianShare(shares)
	r.set("trace.submit_ms", float64(med.submit)*msPerNs)
	r.set("trace.tick_ms", float64(med.tick)*msPerNs)
	r.set("trace.round_self_ms", float64(med.rest)*msPerNs)
	self := selfTimes(tr.spans)
	self["tick"] += self["driver.round"]
	for _, l := range []string{"round", "submit", "tick"} {
		r.set("trace.self_ms_per_round."+l, float64(self[l])*msPerNs/float64(len(shares)))
	}
	for _, l := range []string{"wire.encode", "wire.decode", "handler.submit", "stream.push"} {
		r.set("trace.self_ms_per_round."+l, float64(self[l])*msPerNs/float64(p.total))
	}
	untracedP50 := float64(quantile(pooled(untraced, func(e *episode) []int64 { return e.roundNs }), 0.5)) * msPerNs
	accounted := float64(med.submit+med.tick+med.rest) * msPerNs / untracedP50
	r.set("trace.accounted_frac", accounted)
	r.set("trace.overhead_frac", 1-rate(traced)/rate(untraced))
	if accounted < 1-attributionTolerance || accounted > 1+attributionTolerance {
		r.notes = append(r.notes, fmt.Sprintf("the median traced round's layers account for %.1f%% of the untraced round_ms_p50, outside ±%.0f%%", 100*accounted, 100*attributionTolerance))
	}
	return nil
}

// attributionTolerance is how far the median traced round's layer times may
// sum from the untraced round_ms_p50 before the report flags the
// attribution. Traced and untraced episodes run at different times on a
// shared machine, so the tolerance covers their run-to-run spread.
const attributionTolerance = 0.15

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// rate is accepted jobs per second over a set of episodes.
func rate(eps []*episode) float64 {
	var accepted, elapsed int64
	for _, e := range eps {
		accepted += e.sub.accepted
		elapsed += e.elapsedNs
	}
	return float64(accepted) / (float64(elapsed) / 1e9)
}
