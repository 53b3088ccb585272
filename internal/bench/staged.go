package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"ftbar/internal/exec"
	"ftbar/internal/gen"
	"ftbar/internal/service"
	"ftbar/internal/spec"
	"ftbar/internal/wire"
)

// StageSpec is one stage of the staged service experiment, the JSON
// mirror of exec.Stage with a duration in seconds.
type StageSpec struct {
	Name    string  `json:"name"`
	Rate    float64 `json:"rate"` // arrivals/s at the end of the stage
	Seconds float64 `json:"seconds"`
	Ramp    bool    `json:"ramp,omitempty"`
}

// StagedConfig parameterises the staged load experiment: one service
// instance driven open-loop through an arrival profile, with a mixed
// workload (a fresh problem every UniqueEvery requests, repeats of a
// small problem set otherwise) so every stage exercises both the
// scheduler and the cache.
type StagedConfig struct {
	Workers  int `json:"workers"`
	Distinct int `json:"distinct"`
	// UniqueEvery makes every k-th arrival a never-seen problem (a
	// guaranteed cache miss); 0 disables and the cache absorbs all but
	// the first Distinct requests.
	UniqueEvery int         `json:"unique_every"`
	Tasks       int         `json:"tasks"`
	Procs       int         `json:"procs"`
	Npf         int         `json:"npf"`
	CCR         float64     `json:"ccr"`
	Seed        int64       `json:"seed"`
	GCPercent   int         `json:"gc_percent,omitempty"`
	Stages      []StageSpec `json:"stages"`
	// MaxInFlight caps concurrent requests (exec.StageConfig.MaxInFlight).
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// CalibrationRuns sizes the solo uncached runs whose median becomes
	// CalibrationMs; CI gates on p99/CalibrationMs so the committed
	// numbers transfer across machine speeds.
	CalibrationRuns int `json:"calibration_runs"`
}

// DefaultStaged returns the standard three-stage profile: warm-up at a
// low constant rate, a linear ramp, then a constant peak.
func DefaultStaged() StagedConfig {
	return StagedConfig{
		Workers:     4,
		Distinct:    16,
		UniqueEvery: 4,
		Tasks:       30,
		Procs:       4,
		Npf:         1,
		CCR:         1,
		Seed:        2003,
		GCPercent:   400,
		Stages: []StageSpec{
			{Name: "warm", Rate: 120, Seconds: 2},
			{Name: "ramp", Rate: 360, Seconds: 2, Ramp: true},
			{Name: "peak", Rate: 360, Seconds: 2},
		},
		MaxInFlight:     256,
		CalibrationRuns: 24,
	}
}

// StagedStage is the measured time series point for one stage.
type StagedStage struct {
	Stage    int     `json:"stage"`
	Name     string  `json:"name"`
	Rate     float64 `json:"rate"`
	Seconds  float64 `json:"seconds"`
	Ramp     bool    `json:"ramp,omitempty"`
	Requests int     `json:"requests"` // arrivals launched in the stage
	Rejected int     `json:"rejected"` // 429 backpressure rejections
	// HitRate and SchedulerRuns are exact per-stage values, counted
	// client-side from each reply's Cached flag rather than from stats
	// snapshot deltas.
	HitRate       float64 `json:"hit_rate"`
	SchedulerRuns int     `json:"scheduler_runs"`
	P50Ms         float64 `json:"latency_p50_ms"`
	P99Ms         float64 `json:"latency_p99_ms"`
	// P99OverCalibration is P99Ms normalised by the report's
	// CalibrationMs — a machine-speed-free tail measure CI can compare
	// across runs, like the scaling experiment's speedup ratios.
	P99OverCalibration float64 `json:"p99_over_calibration"`
}

// StagedReport is the staged section of BENCH_service.json.
type StagedReport struct {
	Config StagedConfig `json:"config"`
	// CalibrationMs is the median end-to-end latency of solo uncached
	// scheduling runs on this machine, measured before the stages.
	CalibrationMs float64       `json:"calibration_ms"`
	Stages        []StagedStage `json:"stages"`
}

// stageAcc accumulates one stage's client-side observations.
type stageAcc struct {
	mu       sync.Mutex
	lat      []float64 // ms, successful requests only
	hits     int
	misses   int
	rejected int
	err      error
}

// StagedService runs the staged load experiment in-process.
func StagedService(cfg StagedConfig) (*StagedReport, error) {
	if cfg.Workers < 1 || cfg.Distinct < 1 || cfg.CalibrationRuns < 1 || len(cfg.Stages) == 0 {
		return nil, fmt.Errorf("%w: staged %+v", ErrBadConfig, cfg)
	}
	if cfg.GCPercent > 0 {
		defer debug.SetGCPercent(debug.SetGCPercent(cfg.GCPercent))
	}
	problem := func(seed int64) (*spec.Problem, error) {
		return gen.Generate(gen.Params{
			N: cfg.Tasks, CCR: cfg.CCR, Procs: cfg.Procs, Npf: cfg.Npf, Seed: seed,
		})
	}
	repeated := make([]*spec.Problem, cfg.Distinct)
	for i := range repeated {
		p, err := problem(cfg.Seed*1_000_151 + int64(i+1))
		if err != nil {
			return nil, err
		}
		repeated[i] = p
	}
	opts := wire.RequestOptions{PreviewWorkers: 1}

	calMs, err := stagedCalibration(cfg, problem, opts)
	if err != nil {
		return nil, err
	}

	execCfg := exec.StageConfig{MaxInFlight: cfg.MaxInFlight}
	for _, st := range cfg.Stages {
		execCfg.Stages = append(execCfg.Stages, exec.Stage{
			Name: st.Name, Rate: st.Rate, Ramp: st.Ramp,
			Duration: time.Duration(st.Seconds * float64(time.Second)),
		})
	}
	runner, err := exec.NewStagedRunner(execCfg)
	if err != nil {
		return nil, err
	}

	svc := service.New(service.Config{Workers: cfg.Workers})
	defer svc.Close()
	accs := make([]*stageAcc, len(cfg.Stages))
	for i := range accs {
		accs[i] = &stageAcc{}
	}
	ctx := context.Background()
	launched, err := runner.Run(ctx, func(stage, iter int) {
		var p *spec.Problem
		if cfg.UniqueEvery > 0 && iter%cfg.UniqueEvery == 0 {
			// A fresh, never-cached problem: seeds disjoint from the
			// repeated set and the calibration set.
			fresh, genErr := problem(cfg.Seed*2_000_357 + int64(iter+1))
			if genErr != nil {
				acc := accs[stage]
				acc.mu.Lock()
				if acc.err == nil {
					acc.err = genErr
				}
				acc.mu.Unlock()
				return
			}
			p = fresh
		} else {
			p = repeated[iter%cfg.Distinct].Clone()
		}
		t0 := time.Now()
		reply, reqErr := svc.TrySchedule(ctx, &wire.ScheduleRequest{Problem: p, Options: opts})
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		acc := accs[stage]
		acc.mu.Lock()
		defer acc.mu.Unlock()
		switch {
		case errors.Is(reqErr, wire.ErrOverloaded):
			acc.rejected++
		case reqErr != nil:
			if acc.err == nil {
				acc.err = reqErr
			}
		default:
			acc.lat = append(acc.lat, ms)
			if reply.Cached {
				acc.hits++
			} else {
				acc.misses++
			}
		}
	})
	if err != nil {
		return nil, err
	}

	rep := &StagedReport{Config: cfg, CalibrationMs: calMs}
	for i, st := range cfg.Stages {
		acc := accs[i]
		if acc.err != nil {
			return nil, acc.err
		}
		cell := StagedStage{
			Stage: i, Name: st.Name, Rate: st.Rate, Seconds: st.Seconds, Ramp: st.Ramp,
			Requests:      launched[i],
			Rejected:      acc.rejected,
			SchedulerRuns: acc.misses,
			P50Ms:         quantileMs(acc.lat, 0.50),
			P99Ms:         quantileMs(acc.lat, 0.99),
		}
		if n := acc.hits + acc.misses; n > 0 {
			cell.HitRate = float64(acc.hits) / float64(n)
		}
		if calMs > 0 {
			cell.P99OverCalibration = cell.P99Ms / calMs
		}
		rep.Stages = append(rep.Stages, cell)
	}
	return rep, nil
}

// stagedCalibration measures the machine's solo uncached scheduling
// latency: CalibrationRuns distinct problems through a single-worker
// service, sequentially, median end-to-end time. The first few runs are
// warmup (cold caches, allocator growth) and are discarded — the median
// of the rest is the per-machine time unit the stage tails are gated in.
func stagedCalibration(cfg StagedConfig, problem func(int64) (*spec.Problem, error),
	opts wire.RequestOptions) (float64, error) {
	const warmup = 4
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	lat := make([]float64, 0, cfg.CalibrationRuns)
	for i := 0; i < warmup+cfg.CalibrationRuns; i++ {
		p, err := problem(cfg.Seed*3_000_017 + int64(i+1))
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if _, err := svc.Schedule(context.Background(),
			&wire.ScheduleRequest{Problem: p, Options: opts}); err != nil {
			return 0, err
		}
		if i >= warmup {
			lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e6)
		}
	}
	sort.Float64s(lat)
	return lat[len(lat)/2], nil
}

// quantileMs returns the q-quantile of samples (unsorted ok); 0 when
// empty, matching serviceCell's index convention.
func quantileMs(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

// RenderStaged writes the staged report as a fixed-width text table.
func RenderStaged(w io.Writer, rep *StagedReport) error {
	var b strings.Builder
	fmt.Fprintf(&b, "calibration: %.2f ms solo uncached run (median of %d)\n",
		rep.CalibrationMs, rep.Config.CalibrationRuns)
	fmt.Fprintf(&b, "%5s %6s | %8s %7s | %8s %8s | %8s %6s %9s\n",
		"stage", "rate", "requests", "reject", "p50 ms", "p99 ms", "hit rate", "runs", "p99/cal")
	b.WriteString(strings.Repeat("-", 84) + "\n")
	for _, c := range rep.Stages {
		name := c.Name
		if name == "" {
			name = fmt.Sprintf("#%d", c.Stage)
		}
		fmt.Fprintf(&b, "%5s %6.0f | %8d %7d | %8.2f %8.2f | %7.1f%% %6d %9.2f\n",
			name, c.Rate, c.Requests, c.Rejected, c.P50Ms, c.P99Ms,
			c.HitRate*100, c.SchedulerRuns, c.P99OverCalibration)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
