package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"

	"rrsched/internal/obs"
	"rrsched/internal/serve"
)

// wireReplay times the binary submit codec over every batch of the plan:
// AppendSubmitBinary, then DecodeSubmitBinaryInto of the frame it made. It
// returns the total encode and decode nanoseconds.
func wireReplay(p *plan, tr *tracer) (encNs, decNs int64, err error) {
	var buf []byte
	req := &serve.SubmitRequest{Schema: serve.WireSchema}
	dec := &serve.SubmitRequest{}
	for r, bs := range p.rounds {
		for _, b := range bs {
			req.Tenant, req.Jobs = p.tenants[b.tenant], b.jobs
			t0 := obs.Now()
			buf, err = serve.AppendSubmitBinary(buf[:0], req)
			t1 := obs.Now()
			if err != nil {
				return 0, 0, fmt.Errorf("encoding round %d: %w", r, err)
			}
			err = serve.DecodeSubmitBinaryInto(dec, buf)
			t2 := obs.Now()
			if err != nil {
				return 0, 0, fmt.Errorf("decoding round %d: %w", r, err)
			}
			encNs += t1 - t0
			decNs += t2 - t1
			tr.add(0, "wire.encode", int64(r), interval{t0, t1})
			tr.add(0, "wire.decode", int64(r), interval{t1, t2})
		}
	}
	return encNs, decNs, nil
}

// handlerReplay serves the plan through Handler().ServeHTTP of a fresh
// single service with the plan's shape, with no socket: each batch is one
// pre-encoded binary request, and Service.Tick advances the rounds. It
// returns the per-batch handler latencies.
func handlerReplay(p *plan, stateDir string, tr *tracer) ([]int64, error) {
	cfg := p.cfg
	if cfg.EvictAfter > 0 {
		cfg.StateDir = stateDir
	}
	svc, _, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	h := svc.Handler()
	bodies := make([][][]byte, len(p.rounds))
	for r, bs := range p.rounds {
		for _, b := range bs {
			body, err := serve.EncodeSubmitBinary(&serve.SubmitRequest{Schema: serve.WireSchema, Tenant: p.tenants[b.tenant], Jobs: b.jobs})
			if err != nil {
				return nil, err
			}
			bodies[r] = append(bodies[r], body)
		}
	}
	var lat []int64
	for r := int64(0); r < p.total; r++ {
		if r < int64(len(bodies)) {
			for _, body := range bodies[r] {
				req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
				req.Header.Set("Content-Type", serve.ContentTypeBinary)
				rec := httptest.NewRecorder()
				t0 := obs.Now()
				h.ServeHTTP(rec, req)
				t1 := obs.Now()
				if rec.Code != http.StatusOK {
					return nil, fmt.Errorf("handler replay round %d: status %d: %s", r, rec.Code, rec.Body.String())
				}
				lat = append(lat, t1-t0)
				tr.add(0, "handler.submit", r, interval{t0, t1})
			}
		}
		if _, err := svc.Tick(1); err != nil {
			return nil, fmt.Errorf("handler replay tick %d: %w", r, err)
		}
	}
	svc.BeginDrain()
	return lat, nil
}
