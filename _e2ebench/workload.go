package main

import (
	"fmt"
	"math/rand"

	"rrsched/internal/serve"
	"rrsched/internal/workload"
)

// batch is one tenant's submission within one round. A tenant's batches for
// a round are sent in slice order on one connection, because a later batch
// landing first would answer the earlier one 409 Duplicate.
type batch struct {
	tenant int
	jobs   []serve.SubmitJob
	// cold marks a returning tenant that was idle for at least EvictAfter
	// rounds, so the submit faults it back in from the chunk store.
	cold bool
}

// plan is a workload's complete, seeded input: every round's arrivals, built
// before any timing starts, plus the system shape that serves it.
type plan struct {
	name    string
	tenants []string
	// rounds[r] holds the batches arriving in round r.
	rounds [][]batch
	// total is how many rounds are ticked: the arrival rounds plus a tail
	// long enough for every delay bound to expire, so each accepted job ends
	// executed or dropped.
	total int64
	cfg   serve.Config
	fleet bool
}

// jobs returns the number of jobs in the plan.
func (p *plan) jobs() int64 {
	var n int64
	for _, bs := range p.rounds {
		for _, b := range bs {
			n += int64(len(b.jobs))
		}
	}
	return n
}

// batches returns the number of batches in the plan.
func (p *plan) batches() int {
	n := 0
	for _, bs := range p.rounds {
		n += len(bs)
	}
	return n
}

// scale sizes a workload. The defaults are the benchmark's; tests pass tiny
// ones.
type scale struct {
	rounds        int64 // arrival rounds
	burstJobs     int   // burst: jobs in the single-colour burst
	pagingTenants int   // paging: intermittent tenant count
}

var defaultScale = map[string]scale{
	"burst":  {rounds: 512, burstJobs: 50000},
	"paging": {rounds: 300, pagingTenants: 2000},
	"fleet":  {rounds: 128},
}

const (
	resources  = 8
	delta      = 4
	shards     = 4
	maxBatch   = 4096 // jobs per submit request, as rrload sends them
	watermark  = 1 << 20
	evictAfter = 8

	steadyTenants = 16
	steadyColors  = 8
	steadyLoad    = 0.6
	minDelayExp   = 2
	maxDelayExp   = 5

	burstRound = 8
	burstColor = steadyColors // a colour no steady stream uses
	burstDelay = 16

	pagingPeriod = 97
	pagingJitter = 8
	pagingJobs   = 4
	pagingDelay  = 4
)

// buildPlan generates the named workload's inputs from seed.
func buildPlan(name string, seed int64, sc scale) (*plan, error) {
	switch name {
	case "burst":
		return steadyPlan(name, seed, sc, true)
	case "fleet":
		return steadyPlan(name, seed, sc, false)
	case "paging":
		return pagingPlan(seed, sc), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want burst, paging or fleet)", name)
}

// steadyPlan is 16 tenants of random general traffic (8 colours, load 0.6).
// Colour c has delay bound 2^(2 + c mod 4), so every tenant has two colours
// at each bound from 2^2 to 2^5: drawing the bounds at random instead would
// move drop_frac by about a tenth from one seed to the next. With burst set,
// tenant 0 also sends a single-colour burst early in the run; without it the
// plan runs on a dispatched fleet.
func steadyPlan(name string, seed int64, sc scale, burst bool) (*plan, error) {
	p := &plan{
		name:   name,
		rounds: make([][]batch, sc.rounds),
		cfg:    serve.Config{Shards: shards, Resources: resources, Delta: delta, Watermark: watermark},
		fleet:  !burst,
	}
	for i := 0; i < steadyTenants; i++ {
		seq, err := workload.RandomGeneral(workload.RandomConfig{
			Seed:        seed*1000 + int64(i),
			Delta:       delta,
			Colors:      steadyColors,
			Rounds:      sc.rounds,
			MinDelayExp: minDelayExp,
			MaxDelayExp: maxDelayExp,
			Load:        steadyLoad,
		})
		if err != nil {
			return nil, err
		}
		p.tenants = append(p.tenants, fmt.Sprintf("tenant-%03d", i))
		// IDs are renumbered round-major so they rise strictly across a
		// tenant's batches, burst included.
		next := int64(0)
		for r := int64(0); r < sc.rounds; r++ {
			var jobs []serve.SubmitJob
			for _, j := range seq.Request(r) {
				jobs = append(jobs, serve.SubmitJob{ID: next, Color: int32(j.Color), Delay: steadyDelay(int(j.Color))})
				next++
			}
			if burst && i == 0 && r == burstRound {
				for k := 0; k < sc.burstJobs; k++ {
					jobs = append(jobs, serve.SubmitJob{ID: next, Color: burstColor, Delay: burstDelay})
					next++
				}
			}
			p.rounds[r] = appendBatches(p.rounds[r], i, jobs, false)
		}
	}
	p.total = sc.rounds + 1<<maxDelayExp + 1
	return p, nil
}

// steadyDelay is colour c's delay bound in a steady tenant.
func steadyDelay(c int) int64 {
	return 1 << (minDelayExp + c%(maxDelayExp-minDelayExp+1))
}

// pagingPlan is a large population of intermittent tenants: each sends 4 jobs
// (4 colours, delay 4) about every 97 rounds, and the service pages idle
// tenants out after 8 rounds, so almost every return is a fault-in.
func pagingPlan(seed int64, sc scale) *plan {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{
		name:   "paging",
		rounds: make([][]batch, sc.rounds),
		cfg: serve.Config{Shards: shards, Resources: resources, Delta: delta, Watermark: watermark,
			EvictAfter: evictAfter},
	}
	for i := 0; i < sc.pagingTenants; i++ {
		p.tenants = append(p.tenants, fmt.Sprintf("cold-%07d", i))
		next := int64(0)
		last := int64(-1)
		for r := rng.Int63n(pagingPeriod); r < sc.rounds; r += pagingPeriod - pagingJitter + rng.Int63n(2*pagingJitter+1) {
			jobs := make([]serve.SubmitJob, pagingJobs)
			for k := range jobs {
				jobs[k] = serve.SubmitJob{ID: next, Color: int32(k), Delay: pagingDelay}
				next++
			}
			// A tenant's last job resolves within pagingDelay rounds; it is
			// evictable EvictAfter rounds after that.
			cold := last >= 0 && r-last > pagingDelay+evictAfter
			p.rounds[r] = appendBatches(p.rounds[r], i, jobs, cold)
			last = r
		}
	}
	p.total = sc.rounds + pagingDelay + 1
	return p
}

// appendBatches splits one tenant's round of jobs into wire batches.
func appendBatches(dst []batch, tenant int, jobs []serve.SubmitJob, cold bool) []batch {
	for len(jobs) > 0 {
		n := min(len(jobs), maxBatch)
		dst = append(dst, batch{tenant: tenant, jobs: jobs[:n:n], cold: cold})
		jobs = jobs[n:]
	}
	return dst
}
