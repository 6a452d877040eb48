// Command rrserve runs the sharded scheduling service: an HTTP ingest layer
// over a pool of per-tenant stream schedulers, with watermark backpressure,
// a real-time or virtual round ticker, and graceful drain to per-shard
// checkpoints (restored automatically on the next boot from the same -state
// dir).
//
// Examples:
//
//	rrserve -addr :8080 -n 64 -delta 4 -shards 8 -round 10ms -state ./state
//	rrserve -addr 127.0.0.1:0 -shards 4 -round 0        # virtual time: drive /v1/tick
//
// On SIGINT/SIGTERM the service drains: admissions stop (submits get 503,
// /readyz goes unready), the in-flight round completes, every shard's state
// is checkpointed to -state, and the process exits 0.
//
// Tenant state written by older builds in JSON is refused at boot; convert a
// stopped service's (or dispatcher's) state dir once with
//
//	rrserve -convert ./state
//
// Every data endpoint negotiates the wire format per request: JSON
// (rrserve/v1) by default, the length-prefixed binary framing (rrserve/v2)
// when the client sends Content-Type/Accept application/x-rrserve-bin.
// Nothing to configure server-side — clients opt in, and error responses are
// always JSON.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rrsched/internal/dispatch"
	"rrsched/internal/serve"
)

// parseClasses parses the -classes value ("name:weight,...") into the
// weighted class table; range and duplicate validation stays in serve.New.
func parseClasses(s string) ([]serve.TenantClass, error) {
	if s == "" {
		return nil, nil
	}
	var out []serve.TenantClass
	for _, part := range strings.Split(s, ",") {
		name, weight, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("-classes entry %q: want name:weight", part)
		}
		w, err := strconv.ParseInt(weight, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-classes entry %q: weight: %w", part, err)
		}
		out = append(out, serve.TenantClass{Name: name, Weight: w})
	}
	return out, nil
}

// convertStateDir is the one-shot -convert mode: a dispatcher state dir
// (shard-*.json) or an rrserve state dir (manifest-*.json and chunks) is
// rewritten in place from the JSON tenant-state format into the binary one.
// Run it with the service or dispatcher stopped.
func convertStateDir(dir string, stdout io.Writer) error {
	files, err := filepath.Glob(filepath.Join(dir, "shard-*.json"))
	if err != nil {
		return err
	}
	what, convert := "tenant chunks", serve.ConvertStateDir
	if len(files) > 0 {
		what, convert = "dispatcher shard files", dispatch.ConvertStateDir
	}
	n, err := convert(dir)
	if err != nil {
		return err
	}
	_, _ = fmt.Fprintf(stdout, "rrserve: converted %d %s in %s to the binary tenant-state format\n", n, what, dir) // best-effort status output
	return nil
}

func main() {
	// Library code returns errors; a defect that still panics must exit with
	// a diagnostic, not a stack trace.
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintln(os.Stderr, "rrserve: internal panic:", r)
			os.Exit(1)
		}
	}()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, sigs, nil); err != nil {
		fmt.Fprintln(os.Stderr, "rrserve:", err)
		os.Exit(1)
	}
}

// run is main minus the process plumbing, so tests can inject flags, a
// signal channel, and receive the bound address. The shutdown order it
// implements is the drain protocol the chaos tests pin down:
//
//  1. stop admissions (serve.BeginDrain: 503s, ticker stopped, round barrier)
//  2. stop the HTTP server (in-flight requests finish against live shards)
//  3. checkpoint every shard to the state dir
//  4. stop the shard goroutines
func run(args []string, stdout io.Writer, sigs <-chan os.Signal, ready chan<- string) error {
	fs := flag.NewFlagSet("rrserve", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		shards    = fs.Int("shards", 4, "scheduler shards (tenants map to shards by consistent hashing)")
		n         = fs.Int("n", 8, "resources per tenant (multiple of 4)")
		delta     = fs.Int64("delta", 4, "reconfiguration cost Δ")
		watermark = fs.Int("watermark", 1<<16, "per-shard backlog watermark: batches beyond it get 429")
		round     = fs.Duration("round", 0, "real-time duration of one round; 0 = virtual time (drive POST /v1/tick)")
		state     = fs.String("state", "", "state dir for drain checkpoints (and boot restore); empty disables durability")
		record    = fs.Bool("record-decisions", false, "keep per-tenant decision streams and serve /v1/decisions (testing; memory grows with the run)")
		drainWait = fs.Duration("drain-timeout", 10*time.Second, "max wait for in-flight HTTP requests on shutdown")
		classesF  = fs.String("classes", "", "weighted tenant QoS classes as name:weight,... (e.g. gold:3,bronze:1); empty runs the single implicit default class")
		budget    = fs.Int64("reshard-budget", 0, "max tenant-state bytes one live reshard may migrate, split across classes by weight (0 = unlimited)")
		evict     = fs.Int64("evict-after", 0, "page out tenants idle this many rounds to the chunk store (requires -state; 0 disables)")
		maxChain  = fs.Int("max-chunk-chain", 0, "fold a tenant's delta-chunk chain into a full chunk at this depth (0 = default)")
		convert   = fs.String("convert", "", "rewrite the JSON tenant state older builds wrote in this dir (an rrserve state dir, or an rrdispatch one) into the binary format, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *convert != "" {
		return convertStateDir(*convert, stdout)
	}
	classes, err := parseClasses(*classesF)
	if err != nil {
		return err
	}

	svc, restored, err := serve.New(serve.Config{
		Shards:          *shards,
		Resources:       *n,
		Delta:           *delta,
		Watermark:       *watermark,
		RoundEvery:      *round,
		RecordDecisions: *record,
		StateDir:        *state,
		Classes:         classes,
		ReshardBudget:   *budget,
		EvictAfter:      *evict,
		MaxChunkChain:   *maxChain,
	})
	if err != nil {
		return err
	}
	defer svc.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	mode := "virtual-time (POST /v1/tick advances rounds)"
	if *round > 0 {
		mode = fmt.Sprintf("real-time (%v per round)", *round)
	}
	_, _ = fmt.Fprintf(stdout, "rrserve: listening on %s  shards=%d n=%d Δ=%d watermark=%d %s\n", // best-effort status output
		ln.Addr(), *shards, *n, *delta, *watermark, mode)
	if len(classes) > 0 {
		_, _ = fmt.Fprintf(stdout, "rrserve: classes %s  reshard-budget=%d\n", *classesF, *budget) // best-effort status output
	}
	if restored > 0 {
		_, _ = fmt.Fprintf(stdout, "rrserve: restored %d tenants from %s at round %d\n", restored, *state, svc.Round()) // best-effort status output
	}

	// Bounded read/header/write/idle timeouts: a stalled peer cannot pin a
	// connection (slowloris) or hold the drain hostage mid-response.
	srv := serve.HardenedServer(svc.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	svc.Start()

	select {
	case sig := <-sigs:
		_, _ = fmt.Fprintf(stdout, "rrserve: received %v, draining\n", sig) // best-effort status output
	case err := <-serveErr:
		return fmt.Errorf("http server: %w", err)
	}

	// Drain protocol. Order matters: BeginDrain before Shutdown so requests
	// that are already in flight finish against live shards while new
	// submissions get 503; Checkpoint after Shutdown so no handler can race
	// the snapshot; Close last.
	svc.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("draining http server: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("http server: %w", err)
	}
	if *state != "" {
		if err := svc.Checkpoint(); err != nil {
			return err
		}
		_, _ = fmt.Fprintf(stdout, "rrserve: checkpointed %d shards to %s at round %d\n", *shards, *state, svc.Round()) // best-effort status output
	}
	stats := svc.Stats()
	svc.Close()
	if n := stats.Reshards; n > 0 {
		_, _ = fmt.Fprintf(stdout, "rrserve: reshards=%d (final epoch %d)\n", n, svc.Epoch()) // best-effort status output
	}
	_, _ = fmt.Fprintf(stdout, "rrserve: done  round=%d tenants=%d accepted=%d rejected=%d executed=%d dropped=%d reconfigs=%d\n", // best-effort status output
		stats.Round, stats.Totals.Tenants, stats.Totals.Accepted, stats.Totals.Rejected,
		stats.Totals.Executed, stats.Totals.Dropped, stats.Totals.Reconfigs)
	return nil
}
