package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ftbar/internal/obsv"
	"ftbar/internal/spec"
	"ftbar/internal/wire"
)

// Scheduler is the serving surface behind the HTTP edge. The standalone
// Service implements it in-process; cluster.Master implements it by
// routing each request to the worker that owns its content address.
// NewHandler builds the identical REST/JSON surface over either, which
// is how the cluster split keeps the edge byte-compatible: one handler,
// two engines.
type Scheduler interface {
	// Schedule submits a request and waits for its result, blocking
	// while the backlog is full.
	Schedule(ctx context.Context, req *wire.ScheduleRequest) (*wire.ScheduleReply, error)
	// TrySchedule is Schedule with backpressure: a full backlog rejects
	// with wire.ErrOverloaded instead of waiting.
	TrySchedule(ctx context.Context, req *wire.ScheduleRequest) (*wire.ScheduleReply, error)
	// Stats snapshots the observable state (GET /v1/stats).
	Stats() Stats
	// Metrics returns the registry /metrics exposes.
	Metrics() *obsv.Registry
	// FanWidth bounds the goroutines one composite (batch or sweep)
	// request may fan across.
	FanWidth() int
}

// FanWidth bounds composite fan-out to what the pool and queue can
// absorb, so an arbitrarily large batch cannot multiply goroutines past
// the service's sizing.
func (s *Service) FanWidth() int { return s.cfg.Workers + s.cfg.QueueSize }

// fanOut runs fn(0..n-1) on at most width goroutines.
func fanOut(width, n int, fn func(int)) {
	if width > n {
		width = n
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for g := 0; g < width; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Batch fans the requests across the scheduler and waits for all of
// them. Batch elements use blocking submission: the bounded backlog
// still limits the in-flight work, elements beyond it wait for free
// slots instead of failing the whole batch. Per-element failures land in
// the item's Error field.
func Batch(ctx context.Context, s Scheduler, req *wire.BatchRequest) *wire.BatchResponse {
	out := &wire.BatchResponse{Responses: make([]wire.BatchItem, len(req.Requests))}
	fanOut(s.FanWidth(), len(req.Requests), func(i int) {
		reply, err := s.Schedule(ctx, &req.Requests[i])
		if err != nil {
			out.Responses[i].Error = err.Error()
			return
		}
		out.Responses[i].ScheduleResponse = reply.ScheduleResponse
		out.Responses[i].Cached = reply.Cached
	})
	return out
}

// Batch fans the requests across the worker pool (see the package-level
// Batch).
func (s *Service) Batch(ctx context.Context, req *wire.BatchRequest) *wire.BatchResponse {
	return Batch(ctx, s, req)
}

// Sweep schedules the problem once per requested Npf, fanned across the
// scheduler. Every variant goes through the content-addressed cache, so
// a sweep re-run after an exploratory change only recomputes the
// variants the change invalidated; under a cluster the variants hash to
// different shards and run on different workers.
func Sweep(ctx context.Context, s Scheduler, req *wire.SweepRequest) (*wire.SweepResponse, error) {
	if req.Problem == nil {
		return nil, fmt.Errorf("%w: missing problem", wire.ErrBadRequest)
	}
	if len(req.Npfs) == 0 {
		return nil, fmt.Errorf("%w: empty npfs", wire.ErrBadRequest)
	}
	out := &wire.SweepResponse{Variants: make([]wire.SweepVariant, len(req.Npfs))}
	fanOut(s.FanWidth(), len(req.Npfs), func(i int) {
		npf := req.Npfs[i]
		out.Variants[i].Npf = npf
		if npf < 0 {
			out.Variants[i].Error = spec.ErrNegativeNpf.Error()
			return
		}
		variant := req.Problem.Clone()
		// Vary the processor budget, keep the medium budget — clamped to
		// the variant's Npf, since Nmf copies cannot exceed the Npf+1
		// available. The clamp keeps the Npf=0 baseline (and with it the
		// sweep's overhead column) schedulable for link-tolerant problems.
		nmf := req.Problem.FaultModel().Nmf
		if nmf > npf {
			nmf = npf
		}
		variant.SetFaults(spec.FaultModel{Npf: npf, Nmf: nmf})
		reply, err := s.Schedule(ctx, &wire.ScheduleRequest{
			Problem: variant, Options: req.Options, Include: req.Include,
		})
		if err != nil {
			out.Variants[i].Error = err.Error()
			return
		}
		out.Variants[i].ScheduleResponse = reply.ScheduleResponse
		out.Variants[i].Cached = reply.Cached
	})
	// The paper's overhead formula against the sweep's own Npf = 0 run.
	var base float64
	hasBase := false
	for i := range out.Variants {
		if out.Variants[i].Npf == 0 && out.Variants[i].ScheduleResponse != nil {
			base, hasBase = out.Variants[i].Length, true
			break
		}
	}
	if hasBase {
		for i := range out.Variants {
			if v := &out.Variants[i]; v.ScheduleResponse != nil && v.Length > 0 {
				v.Overhead = (v.Length - base) / v.Length * 100
			}
		}
	}
	return out, nil
}

// Sweep schedules the problem once per requested Npf (see the
// package-level Sweep).
func (s *Service) Sweep(ctx context.Context, req *wire.SweepRequest) (*wire.SweepResponse, error) {
	return Sweep(ctx, s, req)
}

// NewHandler returns the HTTP surface of a scheduler:
//
//	POST /v1/schedule  one problem            -> ScheduleReply
//	POST /v1/batch     many problems          -> BatchResponse
//	POST /v1/sweep     one problem, many Npfs -> SweepResponse
//	GET  /v1/stats     counters and latencies -> Stats
//	GET  /metrics      Prometheus exposition  -> text/plain 0.0.4
//	GET  /healthz      liveness               -> "ok"
//
// Each /v1 endpoint records its handler latency into a per-path
// histogram (ftbar_http_request_duration_seconds{path=...}) on the
// scheduler's registry; the instruments are registered idempotently so
// NewHandler may be called more than once. Error responses carry the
// typed wire.Error code in the X-Ftbar-Error-Code header with the
// pre-cluster plain-text body unchanged.
func NewHandler(s Scheduler) http.Handler {
	mux := http.NewServeMux()
	handle := func(path string, fn http.HandlerFunc) {
		h := s.Metrics().NewHistogramOpts(
			obsv.Label("ftbar_http_request_duration_seconds", "path", path),
			"HTTP handler latency by endpoint.", obsv.HistogramOpts{Lowest: 1e-6})
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			fn(w, r)
			h.Observe(time.Since(t0).Seconds())
		})
	}
	handle("/v1/schedule", func(w http.ResponseWriter, r *http.Request) {
		if !wantMethod(w, r, http.MethodPost) {
			return
		}
		var req wire.ScheduleRequest
		if !decodeBody(w, r, &req) {
			return
		}
		reply, err := s.TrySchedule(r.Context(), &req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, reply)
	})
	handle("/v1/batch", func(w http.ResponseWriter, r *http.Request) {
		if !wantMethod(w, r, http.MethodPost) {
			return
		}
		var req wire.BatchRequest
		if !decodeBody(w, r, &req) {
			return
		}
		writeJSON(w, Batch(r.Context(), s, &req))
	})
	handle("/v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		if !wantMethod(w, r, http.MethodPost) {
			return
		}
		var req wire.SweepRequest
		if !decodeBody(w, r, &req) {
			return
		}
		resp, err := Sweep(r.Context(), s, &req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, resp)
	})
	handle("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		if !wantMethod(w, r, http.MethodGet) {
			return
		}
		writeJSON(w, s.Stats())
	})
	mux.Handle("/metrics", obsv.Handler(s.Metrics()))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Handler returns the HTTP surface of the service (see NewHandler).
func (s *Service) Handler() http.Handler { return NewHandler(s) }

func wantMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		http.Error(w, fmt.Sprintf("method %s not allowed", r.Method), http.StatusMethodNotAllowed)
		return false
	}
	return true
}

// maxBodyBytes bounds request bodies; problems are a few KB, so 64 MiB
// leaves room for very large batches without letting one request buffer
// arbitrary memory.
const maxBodyBytes = 64 << 20

func decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(into); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		w.Header().Set(errorCodeHeader, string(wire.CodeBadRequest))
		http.Error(w, fmt.Sprintf("bad request: %v", err), status)
		return false
	}
	return true
}

// errorCodeHeader carries the typed wire.Error code of a failed request
// out of band, keeping the plain-text body byte-identical to the
// pre-cluster service.
const errorCodeHeader = "X-Ftbar-Error-Code"

// writeError maps a failure onto its edge status through the typed code
// (wire.HTTPStatus): OVERLOADED 429, BAD_REQUEST 400, CLOSED and
// WORKER_UNAVAILABLE 503, TIMEOUT 408, INVALID_PROBLEM and
// VALIDATION_FAILED (the untyped residue) 422 — the table in DESIGN.md
// Section 16.
func writeError(w http.ResponseWriter, err error) {
	code := wire.CodeOf(err)
	w.Header().Set(errorCodeHeader, string(code))
	http.Error(w, err.Error(), wire.HTTPStatus(code))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
