package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"ftbar/internal/gen"
	"ftbar/internal/service"
	"ftbar/internal/spec"
	"ftbar/internal/wire"
)

// ServiceConfig parameterises the service load experiment: an in-process
// client fleet drives the scheduling service at increasing worker counts,
// once with a cold all-distinct workload (throughput must scale with the
// pool) and once with a repeated-request workload (the content-addressed
// cache must absorb it).
type ServiceConfig struct {
	// Workers lists the pool sizes to measure.
	Workers []int `json:"workers"`
	// Clients is the number of concurrent in-process clients.
	Clients int `json:"clients"`
	// Requests is the total number of requests per cell.
	Requests int `json:"requests"`
	// Distinct is the number of distinct problems of the repeated
	// workload; Requests spread over them round-robin, so the expected
	// hit rate is 1 - Distinct/Requests.
	Distinct int `json:"distinct"`
	// Tasks, Procs, Npf and CCR shape the generated problems.
	Tasks int     `json:"tasks"`
	Procs int     `json:"procs"`
	Npf   int     `json:"npf"`
	CCR   float64 `json:"ccr"`
	Seed  int64   `json:"seed"`
	// GCPercent sets the collector target for the duration of each cell
	// (debug.SetGCPercent); 0 keeps the runtime default. Scheduling keeps
	// a tiny live heap, so the default GOGC=100 collects every few
	// milliseconds and the collections serialise the worker pool;
	// ftserved raises the target the same way.
	GCPercent int `json:"gc_percent,omitempty"`
}

// DefaultService returns the standard load: enough repetition for a >90%
// hit rate and a worker ladder that shows pool scaling.
func DefaultService() ServiceConfig {
	return ServiceConfig{
		Workers:   []int{1, 2, 4},
		Clients:   8,
		Requests:  240,
		Distinct:  16,
		Tasks:     30,
		Procs:     4,
		Npf:       1,
		CCR:       1,
		Seed:      2003,
		GCPercent: 400,
	}
}

// ServiceCell is one measured (workers, workload) point.
type ServiceCell struct {
	Workers  int    `json:"workers"`
	Workload string `json:"workload"` // "unique" or "repeated"
	Requests int    `json:"requests"`
	// Throughput is requests per second over the whole cell.
	Throughput float64 `json:"throughput_rps"`
	// P50Ms and P99Ms are end-to-end client latencies.
	P50Ms float64 `json:"latency_p50_ms"`
	P99Ms float64 `json:"latency_p99_ms"`
	// HitRate and SchedulerRuns come from the service's own stats
	// endpoint: cached responses never touch the scheduler.
	HitRate       float64 `json:"hit_rate"`
	SchedulerRuns uint64  `json:"scheduler_runs"`
	DurationNs    int64   `json:"duration_ns"`
}

// ServiceReport is the machine-readable outcome, a BENCH_*.json
// trajectory like the scaling experiment's.
type ServiceReport struct {
	Experiment string        `json:"experiment"`
	Config     ServiceConfig `json:"config"`
	Cells      []ServiceCell `json:"cells"`
	// Staged is the staged arrival-rate section (ftbench -experiment
	// service -stages); absent from plain runs.
	Staged *StagedReport `json:"staged,omitempty"`
}

// Service runs the load experiment in-process.
func Service(cfg ServiceConfig) (*ServiceReport, error) {
	if len(cfg.Workers) == 0 || cfg.Clients < 1 || cfg.Requests < 1 || cfg.Distinct < 1 ||
		cfg.Distinct > cfg.Requests {
		return nil, fmt.Errorf("%w: service %+v", ErrBadConfig, cfg)
	}
	rep := &ServiceReport{Experiment: "service", Config: cfg}
	for _, workers := range cfg.Workers {
		for _, workload := range []string{"unique", "repeated"} {
			distinct := cfg.Requests
			if workload == "repeated" {
				distinct = cfg.Distinct
			}
			cell, err := serviceCell(cfg, workers, workload, distinct)
			if err != nil {
				return nil, err
			}
			rep.Cells = append(rep.Cells, cell)
		}
	}
	return rep, nil
}

// serviceCell drives one fresh service instance with Clients concurrent
// in-process clients over Requests requests round-robining Distinct
// problems.
func serviceCell(cfg ServiceConfig, workers int, workload string, distinct int) (ServiceCell, error) {
	if cfg.GCPercent > 0 {
		defer debug.SetGCPercent(debug.SetGCPercent(cfg.GCPercent))
	}
	problems := make([]*spec.Problem, distinct)
	for i := range problems {
		p, err := gen.Generate(gen.Params{
			N: cfg.Tasks, CCR: cfg.CCR, Procs: cfg.Procs, Npf: cfg.Npf,
			Seed: cfg.Seed*1_000_151 + int64(i+1),
		})
		if err != nil {
			return ServiceCell{}, err
		}
		problems[i] = p
	}
	svc := service.New(service.Config{Workers: workers, QueueSize: 2 * cfg.Requests})
	defer svc.Close()

	// PreviewWorkers=1 keeps each scheduling run single-threaded so the
	// cell measures pool scaling, not the engine's internal parallelism.
	opts := wire.RequestOptions{PreviewWorkers: 1}
	lat := make([]float64, cfg.Requests)
	errs := make([]error, cfg.Clients)
	var next int64 = -1
	start := time.Now()
	done := make(chan int, cfg.Clients)
	for c := 0; c < cfg.Clients; c++ {
		go func(c int) {
			defer func() { done <- c }()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= cfg.Requests {
					return
				}
				// Clone per request: each arrives as its own decoded
				// problem, like distinct HTTP clients.
				req := &wire.ScheduleRequest{Problem: problems[i%distinct].Clone(), Options: opts}
				t0 := time.Now()
				if _, err := svc.Schedule(context.Background(), req); err != nil {
					errs[c] = err
					return
				}
				lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
			}
		}(c)
	}
	for c := 0; c < cfg.Clients; c++ {
		<-done
	}
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return ServiceCell{}, err
		}
	}
	st := svc.Stats()
	sort.Float64s(lat)
	cell := ServiceCell{
		Workers:       workers,
		Workload:      workload,
		Requests:      cfg.Requests,
		Throughput:    float64(cfg.Requests) / elapsed.Seconds(),
		P50Ms:         lat[len(lat)/2],
		P99Ms:         lat[int(0.99*float64(len(lat)-1)+0.5)],
		HitRate:       st.HitRate,
		SchedulerRuns: st.SchedulerRuns,
		DurationNs:    elapsed.Nanoseconds(),
	}
	return cell, nil
}

// RenderService writes the report as a fixed-width text table.
func RenderService(w io.Writer, rep *ServiceReport) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%7s %9s | %10s %10s %10s | %8s %10s\n",
		"workers", "workload", "req/s", "p50 ms", "p99 ms", "hit rate", "sched runs")
	b.WriteString(strings.Repeat("-", 76) + "\n")
	for _, c := range rep.Cells {
		fmt.Fprintf(&b, "%7d %9s | %10.1f %10.2f %10.2f | %7.1f%% %10d\n",
			c.Workers, c.Workload, c.Throughput, c.P50Ms, c.P99Ms, c.HitRate*100, c.SchedulerRuns)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderServiceJSON writes the report as indented JSON (the
// BENCH_service.json trajectory format).
func RenderServiceJSON(w io.Writer, rep *ServiceReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
