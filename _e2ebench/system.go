package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"rrsched/internal/dispatch"
	"rrsched/internal/obs"
	"rrsched/internal/serve"
)

// system is one incarnation of the stack under test, driven in virtual time:
// every round's batches land, then one tick advances the round.
type system interface {
	// submit sends one batch on submit connection conn, once, with no retry.
	submit(conn int, tenant string, jobs []serve.SubmitJob) (serve.SubmitOutcome, error)
	// tick advances every shard one round.
	tick() error
	// stats sums the served decision totals and tenant counts.
	stats() (served, error)
	// decisions returns a tenant's recorded decision stream as served, and
	// the shard holding it.
	decisions(tenant string) ([]byte, int, error)
	// metrics returns the program's own metric snapshots: the serving tier's
	// registries merged, and the dispatcher's (nil without a dispatcher).
	metrics() (served, dispatcher *obs.Snapshot, err error)
	// close shuts the system down in order and reports how long the drain
	// cut took (zero when the system keeps no state dir).
	close() (drainNs int64, err error)
}

// startSystem builds the plan's system and returns once it is ready: a
// healthy service, or a fleet whose every shard is leased with the driver
// built. stateDir is used only by workloads that page tenants out.
func startSystem(p *plan, conns int, record bool, stateDir string) (system, error) {
	if p.fleet {
		return startFleet(p, conns, record)
	}
	cfg := p.cfg
	cfg.RecordDecisions = record
	if cfg.EvictAfter > 0 {
		cfg.StateDir = stateDir
	}
	return startService(cfg, conns)
}

// served is what a system reports about its decisions and tenants.
type served struct {
	totals
	tenants, evicted int
}

func servedOf(st *serve.StatsResponse) served {
	return served{
		totals:  totals{executed: st.Totals.Executed, dropped: st.Totals.Dropped, reconfigCost: st.Totals.ReconfigCost},
		tenants: st.Totals.Tenants,
		evicted: st.Totals.Evicted,
	}
}

func (a served) add(b served) served {
	return served{totals: a.totals.add(b.totals), tenants: a.tenants + b.tenants, evicted: a.evicted + b.evicted}
}

// service is a single sharded serve.Service on a loopback listener.
type service struct {
	svc     *serve.Service
	srv     *http.Server
	served  chan struct{}
	clients []*serve.Client // one per submit connection
	state   bool
}

func startService(cfg serve.Config, conns int) (*service, error) {
	svc, _, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &service{svc: svc, srv: serve.HardenedServer(svc.Handler()), served: make(chan struct{}), state: cfg.StateDir != ""}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	base := "http://" + ln.Addr().String()
	for i := 0; i < conns; i++ {
		s.clients = append(s.clients, serve.NewClientWire(base, serve.SingleShot(), serve.WireBinary))
	}
	if err := waitFor(func() bool { return s.clients[0].Healthy() }); err != nil {
		_, _ = s.close()
		return nil, fmt.Errorf("service never became healthy: %w", err)
	}
	return s, nil
}

func (s *service) submit(conn int, tenant string, jobs []serve.SubmitJob) (serve.SubmitOutcome, error) {
	return s.clients[conn].Submit(&serve.SubmitRequest{Schema: serve.WireSchema, Tenant: tenant, Jobs: jobs})
}

func (s *service) tick() error {
	_, err := s.clients[0].Tick(1)
	return err
}

func (s *service) stats() (served, error) {
	st, err := s.clients[0].Stats()
	if err != nil {
		return served{}, err
	}
	return servedOf(st), nil
}

func (s *service) decisions(tenant string) ([]byte, int, error) {
	raw, err := s.clients[0].DecisionsRaw(tenant)
	return raw, s.svc.ShardFor(tenant), err
}

func (s *service) metrics() (*obs.Snapshot, *obs.Snapshot, error) {
	snap, err := s.clients[0].Metrics()
	return snap, nil, err
}

func (s *service) close() (int64, error) {
	t0 := obs.Now()
	s.svc.BeginDrain()
	drain := obs.Now() - t0
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.served
	if s.state {
		t0 = obs.Now()
		if cerr := s.svc.Checkpoint(); cerr != nil && err == nil {
			err = fmt.Errorf("drain checkpoint: %w", cerr)
		}
		drain += obs.Now() - t0
	} else {
		drain = 0
	}
	s.svc.Close()
	return drain, err
}

// fleet is a dispatcher plus two workers over loopback, all at default
// settings, driven through dispatch.Driver.
type fleet struct {
	d       *dispatch.Dispatcher
	srv     *http.Server
	served  chan struct{}
	workers []*dispatch.Worker
	driver  *dispatch.Driver
}

const fleetWorkers = 2

func startFleet(p *plan, conns int, record bool) (*fleet, error) {
	d, err := dispatch.New(dispatch.Config{Service: dispatch.ServiceConfig{
		Shards: p.cfg.Shards, Resources: p.cfg.Resources, Delta: p.cfg.Delta, Watermark: p.cfg.Watermark,
		RecordDecisions: record,
	}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, err
	}
	f := &fleet{d: d, srv: serve.HardenedServer(d.Handler()), served: make(chan struct{})}
	go func() {
		defer close(f.served)
		_ = f.srv.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	base := "http://" + ln.Addr().String()
	for i := 0; i < fleetWorkers; i++ {
		w, err := dispatch.StartWorker(fmt.Sprintf("w%d", i+1), base, "127.0.0.1:0", io.Discard)
		if err != nil {
			_, _ = f.close()
			return nil, err
		}
		f.workers = append(f.workers, w)
	}
	if err := waitFor(func() bool { return d.Stats().Assigned == p.cfg.Shards }); err != nil {
		_, _ = f.close()
		return nil, fmt.Errorf("fleet never leased every shard: %w", err)
	}
	if f.driver, err = dispatch.NewDriver(base, dispatch.DriverConfig{Wire: serve.WireBinary}); err != nil {
		_, _ = f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) submit(_ int, tenant string, jobs []serve.SubmitJob) (serve.SubmitOutcome, error) {
	return f.driver.Submit(tenant, jobs)
}

// tick runs one Driver.Round with no batches of its own: the round's batches
// have already landed through submit, so the round ticks every shard once and
// confirms the dispatcher stored each post-tick checkpoint.
func (f *fleet) tick() error { return f.driver.Round(nil) }

func (f *fleet) workerClients() []*serve.Client {
	var cs []*serve.Client
	for _, w := range f.workers {
		cs = append(cs, serve.NewClient(w.Addr()))
	}
	return cs
}

func (f *fleet) stats() (served, error) {
	var sum served
	for _, c := range f.workerClients() {
		st, err := c.Stats()
		if err != nil {
			return served{}, err
		}
		sum = sum.add(servedOf(st))
	}
	return sum, nil
}

func (f *fleet) decisions(tenant string) ([]byte, int, error) {
	raw, err := f.driver.DecisionsRaw(tenant)
	return raw, f.driver.ShardOf(tenant), err
}

func (f *fleet) metrics() (*obs.Snapshot, *obs.Snapshot, error) {
	var snaps []*obs.Snapshot
	for _, c := range f.workerClients() {
		s, err := c.Metrics()
		if err != nil {
			return nil, nil, err
		}
		snaps = append(snaps, s)
	}
	served, err := obs.MergeSnapshots(snaps...)
	return served, f.d.Metrics(), err
}

func (f *fleet) close() (int64, error) {
	for _, w := range f.workers {
		w.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := f.srv.Shutdown(ctx)
	<-f.served
	f.d.Close()
	return 0, err
}

// waitFor polls ready until it holds or ten seconds pass.
func waitFor(ready func() bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for !ready() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
