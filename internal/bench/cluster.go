package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"ftbar/internal/cluster"
	"ftbar/internal/gen"
	"ftbar/internal/service"
	"ftbar/internal/spec"
	"ftbar/internal/wire"
)

// ClusterConfig parameterises the master/worker sharding experiment: an
// in-process client fleet drives a real master routing over real
// loopback-TCP workers at increasing cluster sizes, across three
// workloads:
//
//   - "unique": every request is a distinct problem — pure scheduler
//     work. On a single-CPU host this cell is CPU-bound and does NOT
//     scale with workers; it is reported as the honest baseline.
//   - "workingset": Requests cycle over Distinct problems with each
//     worker's cache capped at CachePerWorker < Distinct. One worker
//     LRU-thrashes (cyclic access defeats LRU entirely), while enough
//     workers hold the whole working set across their shards and serve
//     cache hits. This is the resource sharding actually multiplies:
//     aggregate cache (and arena) capacity.
//   - "killworker": the largest cluster under load with one worker
//     killed mid-run; measures the client-visible error rate and the
//     master's reroute/death counters.
type ClusterConfig struct {
	// Workers lists the cluster sizes (worker process counts) to measure.
	Workers []int `json:"workers"`
	// Clients is the number of concurrent in-process edge clients.
	Clients int `json:"clients"`
	// Requests is the total number of requests per cell.
	Requests int `json:"requests"`
	// Distinct is the working-set size of the workingset workload.
	Distinct int `json:"distinct"`
	// CachePerWorker caps each worker's schedule cache. The experiment's
	// point requires CachePerWorker < Distinct (one worker cannot hold
	// the set) and Workers[max] * CachePerWorker >= Distinct (the
	// largest cluster can).
	CachePerWorker int `json:"cache_per_worker"`
	// Tasks, Procs, Npf, CCR and Topology shape the generated problems.
	Tasks    int          `json:"tasks"`
	Procs    int          `json:"procs"`
	Npf      int          `json:"npf"`
	CCR      float64      `json:"ccr"`
	Topology gen.Topology `json:"topology"`
	Seed     int64        `json:"seed"`
	// GCPercent sets the collector target for the duration of each cell
	// (0 keeps the runtime default).
	GCPercent int `json:"gc_percent,omitempty"`
}

// DefaultCluster returns the standard sharding ladder: working set of 48
// against 24-entry shards, so 1 worker thrashes and 4 workers hold
// everything.
func DefaultCluster() ClusterConfig {
	return ClusterConfig{
		Workers:        []int{1, 2, 4},
		Clients:        8,
		Requests:       384,
		Distinct:       48,
		CachePerWorker: 24,
		// A 16-processor ring with Npf=2 makes one scheduler run
		// (multi-hop routing, three replicas, bus contention per hop)
		// dwarf the cached-hit path (RPC + JSON), so the cells measure
		// cache capacity, not transport overhead. 8 passes over the
		// working set amortise the compulsory first-pass misses.
		Tasks:     40,
		Procs:     16,
		Npf:       2,
		CCR:       4,
		Topology:  gen.TopoRing,
		Seed:      2003,
		GCPercent: 400,
	}
}

// ClusterCell is one measured (cluster size, workload) point.
type ClusterCell struct {
	Workers  int    `json:"workers"`
	Workload string `json:"workload"`
	Requests int    `json:"requests"`
	// Throughput is successful requests per second over the whole cell.
	Throughput float64 `json:"throughput_rps"`
	P50Ms      float64 `json:"latency_p50_ms"`
	P99Ms      float64 `json:"latency_p99_ms"`
	// HitRate and SchedulerRuns aggregate the worker shards (the
	// cluster /v1/stats view): cached responses never run the scheduler.
	HitRate       float64 `json:"hit_rate"`
	SchedulerRuns uint64  `json:"scheduler_runs"`
	// Errors counts client-visible request failures; ErrorRate divides
	// by Requests. Nonzero only plausibly in the killworker cell.
	Errors    int     `json:"errors"`
	ErrorRate float64 `json:"error_rate"`
	// Reroutes and WorkerDown come from the master's ftbar_cluster_*
	// counters (killworker cell).
	Reroutes   uint64 `json:"reroutes,omitempty"`
	WorkerDown uint64 `json:"worker_down,omitempty"`
	DurationNs int64  `json:"duration_ns"`
}

// ClusterReport is the machine-readable outcome (BENCH_cluster.json).
type ClusterReport struct {
	Experiment string        `json:"experiment"`
	Config     ClusterConfig `json:"config"`
	Cells      []ClusterCell `json:"cells"`
	// WorkingsetSpeedup is the workingset throughput of the largest
	// cluster over the single-worker cluster: the aggregate cache
	// capacity effect the sharding design exists for.
	WorkingsetSpeedup float64 `json:"workingset_speedup"`
	// UniqueSpeedup is the same ratio on the all-distinct workload; on a
	// single-CPU host it stays ~1 (CPU-bound, honestly reported).
	UniqueSpeedup float64 `json:"unique_speedup"`
	// KillErrorRate is the killworker cell's client-visible error rate.
	KillErrorRate float64 `json:"kill_error_rate"`
}

// Cluster runs the sharding experiment in-process.
func Cluster(cfg ClusterConfig) (*ClusterReport, error) {
	if len(cfg.Workers) == 0 || cfg.Clients < 1 || cfg.Requests < 1 || cfg.Distinct < 1 ||
		cfg.CachePerWorker < 1 || cfg.CachePerWorker >= cfg.Distinct {
		return nil, fmt.Errorf("%w: cluster %+v", ErrBadConfig, cfg)
	}
	rep := &ClusterReport{Experiment: "cluster", Config: cfg}
	var firstWS, lastWS, firstUQ, lastUQ float64
	for _, workers := range cfg.Workers {
		for _, workload := range []string{"unique", "workingset"} {
			cell, err := clusterCell(cfg, workers, workload, -1)
			if err != nil {
				return nil, err
			}
			rep.Cells = append(rep.Cells, cell)
			switch {
			case workload == "workingset" && workers == cfg.Workers[0]:
				firstWS = cell.Throughput
			case workload == "workingset" && workers == cfg.Workers[len(cfg.Workers)-1]:
				lastWS = cell.Throughput
			case workload == "unique" && workers == cfg.Workers[0]:
				firstUQ = cell.Throughput
			case workload == "unique" && workers == cfg.Workers[len(cfg.Workers)-1]:
				lastUQ = cell.Throughput
			}
		}
	}
	// The fault cell: largest cluster, workingset load, one worker killed
	// after a quarter of the requests.
	kill, err := clusterCell(cfg, cfg.Workers[len(cfg.Workers)-1], "killworker", cfg.Requests/4)
	if err != nil {
		return nil, err
	}
	rep.Cells = append(rep.Cells, kill)
	if firstWS > 0 {
		rep.WorkingsetSpeedup = lastWS / firstWS
	}
	if firstUQ > 0 {
		rep.UniqueSpeedup = lastUQ / firstUQ
	}
	rep.KillErrorRate = kill.ErrorRate
	return rep, nil
}

// clusterCell boots a fresh master + workers cluster on loopback TCP and
// drives it with Clients concurrent clients. killAfter >= 0 kills one
// worker once that many requests have completed.
func clusterCell(cfg ClusterConfig, workers int, workload string, killAfter int) (ClusterCell, error) {
	if cfg.GCPercent > 0 {
		defer debug.SetGCPercent(debug.SetGCPercent(cfg.GCPercent))
	}
	distinct := cfg.Distinct
	if workload == "unique" {
		distinct = cfg.Requests
	}
	problems := make([]*spec.Problem, distinct)
	for i := range problems {
		p, err := gen.Generate(gen.Params{
			N: cfg.Tasks, CCR: cfg.CCR, Procs: cfg.Procs, Npf: cfg.Npf,
			Topology: cfg.Topology, Seed: cfg.Seed*1_000_151 + int64(i+1),
		})
		if err != nil {
			return ClusterCell{}, err
		}
		problems[i] = p
	}

	master := cluster.NewMaster(cluster.MasterConfig{
		FanWidth: cfg.Clients,
		Registry: cluster.RegistryConfig{ProbeEvery: 100 * time.Millisecond},
	})
	defer master.Close()
	workerSet := make([]*cluster.Worker, workers)
	for i := range workerSet {
		// One scheduler goroutine per worker (the cell measures sharding,
		// not in-process pool scaling) and no warm-start arenas: arenas
		// warm-start by problem shape, and with one generated shape they
		// would blur the cache-capacity effect the cell isolates.
		svc := service.New(service.Config{
			Workers: 1, QueueSize: 2 * cfg.Requests,
			CacheSize: cfg.CachePerWorker, ArenaSize: -1,
		})
		w := cluster.NewWorker(fmt.Sprintf("bench-worker-%d", i), svc)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return ClusterCell{}, err
		}
		w.Serve(ln)
		master.AddWorker(w.ID(), w.Addr())
		workerSet[i] = w
		defer func(w *cluster.Worker) {
			w.Close()
			w.Service().Close()
		}(w)
	}

	opts := wire.RequestOptions{PreviewWorkers: 1}
	lat := make([]float64, cfg.Requests)
	var next, completed, failures int64 = -1, 0, 0
	var killed atomic.Bool
	start := time.Now()
	done := make(chan struct{}, cfg.Clients)
	for c := 0; c < cfg.Clients; c++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= cfg.Requests {
					return
				}
				if killAfter >= 0 && !killed.Load() &&
					int(atomic.LoadInt64(&completed)) >= killAfter && killed.CompareAndSwap(false, true) {
					workerSet[0].Close() // sever RPC mid-load, no grace
				}
				req := &wire.ScheduleRequest{Problem: problems[i%distinct], Options: opts}
				t0 := time.Now()
				if _, err := master.Schedule(context.Background(), req); err != nil {
					atomic.AddInt64(&failures, 1)
				} else {
					lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
				}
				atomic.AddInt64(&completed, 1)
			}
		}()
	}
	for c := 0; c < cfg.Clients; c++ {
		<-done
	}
	elapsed := time.Since(start)

	st := master.Stats()
	ok := cfg.Requests - int(failures)
	lats := lat[:0]
	for _, v := range lat {
		if v > 0 {
			lats = append(lats, v)
		}
	}
	sort.Float64s(lats)
	cell := ClusterCell{
		Workers:       workers,
		Workload:      workload,
		Requests:      cfg.Requests,
		Throughput:    float64(ok) / elapsed.Seconds(),
		HitRate:       st.HitRate,
		SchedulerRuns: st.SchedulerRuns,
		Errors:        int(failures),
		ErrorRate:     float64(failures) / float64(cfg.Requests),
		DurationNs:    elapsed.Nanoseconds(),
	}
	if len(lats) > 0 {
		cell.P50Ms = lats[len(lats)/2]
		cell.P99Ms = lats[int(0.99*float64(len(lats)-1)+0.5)]
	}
	if killAfter >= 0 {
		snap := master.Metrics().Gather()
		for _, s := range snap.Samples {
			switch s.Name {
			case "ftbar_cluster_reroutes_total":
				cell.Reroutes = uint64(s.Value)
			case "ftbar_cluster_worker_down_total":
				cell.WorkerDown = uint64(s.Value)
			}
		}
	}
	return cell, nil
}

// RenderCluster writes the report as a fixed-width text table.
func RenderCluster(w io.Writer, rep *ClusterReport) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%7s %11s | %10s %10s %10s | %8s %10s | %7s\n",
		"workers", "workload", "req/s", "p50 ms", "p99 ms", "hit rate", "sched runs", "errors")
	b.WriteString(strings.Repeat("-", 86) + "\n")
	for _, c := range rep.Cells {
		fmt.Fprintf(&b, "%7d %11s | %10.1f %10.2f %10.2f | %7.1f%% %10d | %7d\n",
			c.Workers, c.Workload, c.Throughput, c.P50Ms, c.P99Ms, c.HitRate*100, c.SchedulerRuns, c.Errors)
	}
	fmt.Fprintf(&b, "\nworkingset speedup (%d vs %d workers): %.2fx   unique speedup: %.2fx   kill error rate: %.2f%%\n",
		rep.Config.Workers[len(rep.Config.Workers)-1], rep.Config.Workers[0],
		rep.WorkingsetSpeedup, rep.UniqueSpeedup, rep.KillErrorRate*100)
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderClusterJSON writes the report as indented JSON (the
// BENCH_cluster.json trajectory format).
func RenderClusterJSON(w io.Writer, rep *ClusterReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
