package main

import (
	"fmt"
	"sync"
	"syscall"

	"rrsched/internal/obs"
	"rrsched/internal/serve"
)

// submitStats counts first-send outcomes. Any batch that is not Accepted on
// its first send is a failure: a 409 Duplicate means an earlier send of the
// same IDs already landed, or a later batch of the tenant overtook this one.
type submitStats struct {
	batches, accepted int64 // batches sent; jobs accepted
	rejected, refused int64 // 429 backpressure; 503 draining
	duplicate, errors int64 // 409 on a first send; transport or validation errors
	other             int64 // any other non-accepted outcome
}

func (s *submitStats) record(n int, out serve.SubmitOutcome, err error) {
	s.batches++
	switch {
	case err != nil:
		s.errors++
	case out.Accepted:
		s.accepted += int64(n)
	case out.Duplicate:
		s.duplicate++
	case out.Rejected:
		s.rejected++
	case out.Refused:
		s.refused++
	default:
		s.other++
	}
}

func (s *submitStats) failed() int64 {
	return s.rejected + s.refused + s.duplicate + s.errors + s.other
}

func (s *submitStats) add(o submitStats) {
	s.batches += o.batches
	s.accepted += o.accepted
	s.rejected += o.rejected
	s.refused += o.refused
	s.duplicate += o.duplicate
	s.errors += o.errors
	s.other += o.other
}

// episode is one pass of a plan through a freshly built system.
type episode struct {
	roundNs, tickNs  []int64
	warmNs, coldNs   []int64 // per-batch client latency, by whether the tenant was paged out
	sub              submitStats
	ticks, tickFails int64
	elapsedNs        int64
	cpuNs            int64 // process user+system CPU time over the round loop
	peakRSS          int64
	residents        []int64 // resident tenants, sampled while tracing
	served           served
	drainNs          int64
	snap, dispSnap   *obs.Snapshot

	allocBytes, gcCycles, gcPauseNs int64 // process totals over the episode
	stateBytes, stateFiles          int64 // state dir after the drain cut
}

func (e *episode) submitNs() []int64 { return append(append([]int64(nil), e.warmNs...), e.coldNs...) }

// connWork is one submit connection's share of a round: whole tenants, so a
// tenant's batches go out in order on one connection.
type connWork [][]batch

// partition assigns each round's batches to conns connections by tenant.
func partition(p *plan, conns int) []connWork {
	out := make([]connWork, len(p.rounds))
	for r, bs := range p.rounds {
		out[r] = make(connWork, conns)
		for _, b := range bs {
			c := b.tenant % conns
			out[r][c] = append(out[r][c], b)
		}
	}
	return out
}

// connResult is what one connection saw during one round.
type connResult struct {
	warm, cold []int64
	spans      []interval // per-batch submit intervals, when tracing
	sub        submitStats
}

// sendAll sends one connection's batches of a round in order, once each.
func sendAll(sys system, p *plan, conn int, bs []batch, trace bool, res *connResult) {
	for _, b := range bs {
		t0 := obs.Now()
		out, err := sys.submit(conn, p.tenants[b.tenant], b.jobs)
		t1 := obs.Now()
		res.sub.record(len(b.jobs), out, err)
		if b.cold {
			res.cold = append(res.cold, t1-t0)
		} else {
			res.warm = append(res.warm, t1-t0)
		}
		if trace {
			res.spans = append(res.spans, interval{t0, t1})
		}
	}
}

// runEpisode drives every round of the plan: the round's batches land, then
// one tick runs. A round is timed from its first submit until the tick
// returns. tr, when non-nil, records a span per round, submit and tick.
func runEpisode(sys system, p *plan, work []connWork, tr *tracer) (*episode, error) {
	e := &episode{}
	conns := 0
	if len(work) > 0 {
		conns = len(work[0])
	}
	results := make([]connResult, conns)
	cpu0 := cpuTime()
	start := obs.Now()
	for r := int64(0); r < p.total; r++ {
		for i := range results {
			results[i] = connResult{warm: results[i].warm[:0], cold: results[i].cold[:0], spans: results[i].spans[:0]}
		}
		t0 := obs.Now()
		if r < int64(len(work)) {
			var wg sync.WaitGroup
			for c, bs := range work[r] {
				if len(bs) == 0 {
					continue
				}
				wg.Add(1)
				go func(c int, bs []batch) {
					defer wg.Done()
					sendAll(sys, p, c, bs, tr != nil, &results[c])
				}(c, bs)
			}
			wg.Wait()
		}
		t1 := obs.Now()
		err := sys.tick()
		t2 := obs.Now()
		e.ticks++
		if err != nil {
			e.tickFails++
		}
		e.roundNs = append(e.roundNs, t2-t0)
		e.tickNs = append(e.tickNs, t2-t1)
		for i := range results {
			e.warmNs = append(e.warmNs, results[i].warm...)
			e.coldNs = append(e.coldNs, results[i].cold...)
			e.sub.add(results[i].sub)
		}
		if tr != nil {
			root := tr.add(0, "round", r, interval{t0, t2})
			for i := range results {
				for _, iv := range results[i].spans {
					tr.add(root, "submit", r, iv)
				}
			}
			tr.add(root, tickSpan(p), r, interval{t1, t2})
			if r%16 == 0 {
				st, err := sys.stats()
				if err != nil {
					return nil, fmt.Errorf("sampling resident tenants: %w", err)
				}
				e.residents = append(e.residents, int64(st.tenants))
			}
		}
		e.peakRSS = max(e.peakRSS, obs.RSSBytes())
	}
	e.elapsedNs = obs.Now() - start
	e.cpuNs = cpuTime() - cpu0
	var err error
	if e.served, err = sys.stats(); err != nil {
		return nil, fmt.Errorf("reading served totals: %w", err)
	}
	if e.snap, e.dispSnap, err = sys.metrics(); err != nil {
		return nil, fmt.Errorf("reading metrics: %w", err)
	}
	return e, nil
}

// cpuTime is the process's user plus system CPU time so far. Time the host
// takes away from the VM (steal) is not in it.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// tickSpan names the call that advances a round.
func tickSpan(p *plan) string {
	if p.fleet {
		return "driver.round"
	}
	return "tick"
}
