package main

import (
	"bytes"
	"fmt"

	"rrsched/internal/model"
	"rrsched/internal/obs"
	"rrsched/internal/serve"
	"rrsched/internal/stream"
)

// totals are the decision aggregates a run must reproduce exactly.
type totals struct {
	executed, dropped, reconfigCost int64
}

func (t totals) add(o totals) totals {
	return totals{executed: t.executed + o.executed, dropped: t.dropped + o.dropped, reconfigCost: t.reconfigCost + o.reconfigCost}
}

// costPerJob is the paper's objective per accepted job: reconfiguration cost
// plus drops.
func (t totals) costPerJob(accepted int64) float64 {
	return float64(t.reconfigCost+t.dropped) / float64(accepted)
}

// dropFrac is dropped / (executed + dropped).
func (t totals) dropFrac() float64 {
	return float64(t.dropped) / float64(t.executed+t.dropped)
}

// arrivals is one tenant's input regrouped by round: the form a shard feeds
// its scheduler, one round at a time.
type arrivals struct {
	epoch int64 // first round with jobs: the tenant's local round 0
	jobs  map[int64][]model.Job
}

// tenantArrivals regroups the plan per tenant. A tenant that never sends has
// epoch -1.
func tenantArrivals(p *plan) []arrivals {
	out := make([]arrivals, len(p.tenants))
	for i := range out {
		out[i] = arrivals{epoch: -1, jobs: map[int64][]model.Job{}}
	}
	for r, bs := range p.rounds {
		for _, b := range bs {
			a := &out[b.tenant]
			if a.epoch < 0 {
				a.epoch = int64(r)
			}
			for _, j := range b.jobs {
				a.jobs[int64(r)] = append(a.jobs[int64(r)], model.Job{ID: j.ID, Color: model.Color(j.Color), Delay: j.Delay})
			}
		}
	}
	return out
}

// push feeds a scheduler the tenant's jobs of global round r, stamped with
// the local arrival round.
func (a *arrivals) push(s *stream.Scheduler, r int64) (stream.Decision, error) {
	local := r - a.epoch
	jobs := a.jobs[r]
	for i := range jobs {
		jobs[i].Arrival = local
	}
	return s.Push(local, jobs)
}

// oracleStream runs a bare stream.Scheduler over one tenant's arrivals for
// the plan's whole length and returns its decision stream and totals.
func oracleStream(p *plan, a *arrivals) ([]stream.Decision, totals, error) {
	s, err := stream.New(stream.Config{Delta: p.cfg.Delta, Resources: p.cfg.Resources})
	if err != nil {
		return nil, totals{}, err
	}
	decs := make([]stream.Decision, 0, p.total-a.epoch)
	for r := a.epoch; r < p.total; r++ {
		d, err := a.push(s, r)
		if err != nil {
			return nil, totals{}, fmt.Errorf("oracle push round %d: %w", r, err)
		}
		decs = append(decs, d)
	}
	return decs, schedTotals(s), nil
}

func schedTotals(s *stream.Scheduler) totals {
	return totals{executed: int64(s.Executed()), dropped: int64(s.Dropped()), reconfigCost: s.Cost().Reconfig}
}

// oracleRaw renders a decision stream exactly as /v1/decisions serves it.
func oracleRaw(p *plan, tenant string, shard int, epoch int64, decs []stream.Decision) ([]byte, error) {
	return serve.MarshalResponse(&serve.DecisionsResponse{
		Schema:    serve.DecisionsSchema,
		Tenant:    tenant,
		Shard:     shard,
		Epoch:     epoch,
		Round:     p.total,
		Decisions: decs,
	})
}

// verifyStreams checks every tenant's served decision stream against the
// oracle, byte for byte, and returns the oracle's totals. fetch returns the
// served stream and the tenant's shard. perturb, when set, edits the oracle
// stream before comparison; tests use it to prove the check can fail.
func verifyStreams(p *plan, arr []arrivals, fetch func(tenant string) ([]byte, int, error), perturb func([]stream.Decision)) (totals, error) {
	var sum totals
	for i, name := range p.tenants {
		a := &arr[i]
		if a.epoch < 0 {
			continue
		}
		decs, t, err := oracleStream(p, a)
		if err != nil {
			return totals{}, fmt.Errorf("tenant %s: %w", name, err)
		}
		sum = sum.add(t)
		got, shard, err := fetch(name)
		if err != nil {
			return totals{}, fmt.Errorf("fetching decisions of %s: %w", name, err)
		}
		if perturb != nil {
			perturb(decs)
		}
		want, err := oracleRaw(p, name, shard, a.epoch, decs)
		if err != nil {
			return totals{}, err
		}
		if !bytes.Equal(got, want) {
			return totals{}, fmt.Errorf("tenant %s: served decision stream differs from the bare scheduler at byte %d", name, firstDiff(got, want))
		}
	}
	return sum, nil
}

func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// streamReplay feeds bare schedulers the plan round by round, every live
// tenant in turn as a shard ticks them, and times each Push. It returns the
// summed Push time per round, the slowest tenant's Push per round, the push
// count, and the oracle totals. tr gets one stream.push span per round.
func streamReplay(p *plan, arr []arrivals, tr *tracer) (perRound, slowest []int64, pushes int64, sum totals, err error) {
	scheds := make([]*stream.Scheduler, len(p.tenants))
	perRound = make([]int64, p.total)
	slowest = make([]int64, p.total)
	for r := int64(0); r < p.total; r++ {
		start := obs.Now()
		for i := range scheds {
			a := &arr[i]
			if a.epoch < 0 || r < a.epoch {
				continue
			}
			if scheds[i] == nil {
				if scheds[i], err = stream.New(stream.Config{Delta: p.cfg.Delta, Resources: p.cfg.Resources}); err != nil {
					return nil, nil, 0, totals{}, err
				}
			}
			t0 := obs.Now()
			if _, err = a.push(scheds[i], r); err != nil {
				return nil, nil, 0, totals{}, fmt.Errorf("stream replay round %d: %w", r, err)
			}
			d := obs.Now() - t0
			perRound[r] += d
			slowest[r] = max(slowest[r], d)
			pushes++
		}
		tr.add(0, "stream.push", r, interval{start, obs.Now()})
	}
	for _, s := range scheds {
		if s != nil {
			sum = sum.add(schedTotals(s))
		}
	}
	return perRound, slowest, pushes, sum, nil
}
