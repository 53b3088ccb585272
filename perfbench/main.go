// Command perfbench is the repository's benchmark: it hosts the real
// ftserved stack in-process (service.NewHandler over a standalone
// service, or over a master routing to two loopback-TCP workers), drives
// it closed-loop from seeded, pre-generated request bodies, verifies
// every reply and a reference-solved sample, and prints one JSON result
// line. With --trace 1 it measures the per-layer metrics instead, from
// a sequential span-traced replay of the same requests.
//
//	bash perfbench/run.sh --workload dense-fresh --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
//
// The second form prints one row per workload and no JSON line.
//
// workloads.json records the workloads, their generator parameters and
// request mix, and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"ftbar/internal/obsv"
	"ftbar/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (see workloads.json), or all to run each in turn")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "0 measures end-to-end metrics, 1 per-layer metrics from a traced replay")
	outDir := fs.String("out", ".bench_out", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	m, err := loadManifest()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range m.Workloads {
			names = append(names, w.Name)
		}
	}
	// ftserved's default: a higher GC target unless GOGC is set.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	code := 0
	for _, n := range names {
		w, err := m.workload(n)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		b := &bench{m: m, w: w, seed: *seed, seconds: *seconds, traced: *trace == 1,
			spanFile: filepath.Join(*outDir, "spans-"+w.Name+".json"), log: stderr}
		res, err := b.run()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		printRow(stdout, w.Name, b.rows)
		if len(names) == 1 {
			line, err := json.Marshal(res)
			if err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 1
			}
			fmt.Fprintln(stdout, string(line))
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// row is one printed metric: the result's metrics plus context that is
// not a tracked metric.
type row struct {
	name, unit string
	value      float64
}

// printRow prints one workload's metrics on one line.
func printRow(w io.Writer, workload string, rows []row) {
	var b strings.Builder
	b.WriteString(workload)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %s=%.6g %s", r.name, r.value, r.unit)
	}
	fmt.Fprintln(w, b.String())
}

// bench is one invocation.
type bench struct {
	m        *manifest
	w        *workload
	seed     int64
	seconds  float64
	traced   bool
	spanFile string
	log      io.Writer

	rows    []row
	metrics map[string]metric
}

func (b *bench) put(name, unit string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unit}
	b.rows = append(b.rows, row{name, unit, v})
}

func (b *bench) note(name, unit string, v float64) {
	b.rows = append(b.rows, row{name, unit, v})
}

func toDuration(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func (b *bench) run() (*result, error) {
	b.metrics = map[string]metric{}
	warm := b.m.WarmupSeconds
	window := b.seconds
	if b.traced {
		// The traced run splits its time between the load phase, which
		// feeds the service counters, and the replay.
		window = b.seconds / 2
	}
	// Set-up is timed first, while nothing else runs in the process.
	st, setupS, err := setUp(b.w.Stack, b.m.SetupRepeats)
	if err != nil {
		return nil, err
	}
	defer st.close()
	in, err := generate(b.w, b.seed, warm+window)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", b.w.Name, err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseHeap := ms.HeapAlloc
	var depth func() int
	if b.traced {
		depth = st.queueDepth
	}
	lr, err := drive(st.url, in, runtime.NumCPU(), b.seed, toDuration(warm), toDuration(window), depth)
	if err != nil {
		return nil, err
	}
	stats := st.sched.Stats()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	retained := float64(int64(ms.HeapAlloc)-int64(baseHeap)) / 1e3

	verified, sampleErrs := b.verifySample(in, lr)
	for _, e := range append(lr.errs, sampleErrs...) {
		fmt.Fprintln(b.log, "perfbench: failure:", e)
	}
	if lr.exhausted {
		fmt.Fprintln(b.log, "perfbench: the request sequence ran out before the window ended")
	}
	correct := lr.window.failed() == 0 && lr.warm.failed() == 0 && lr.mismatch == 0 && len(sampleErrs) == 0
	res := &result{Attempted: lr.window.attempted, Failed: lr.window.failed()}

	if !b.traced {
		if err := b.endToEnd(in, lr, stats, setupS, retained, verified); err != nil {
			return nil, err
		}
	} else {
		ok, err := b.perLayer(in, lr, st, stats)
		if err != nil {
			return nil, err
		}
		correct = correct && ok
	}
	res.Correct = correct
	res.Metrics = b.metrics
	return res, nil
}

// verifySample re-solves a seeded sample of the tracked problems with
// the reference engine. It returns the count of window replies that
// passed every check and the sample's failures.
func (b *bench) verifySample(in *inputs, lr *loadResult) (int, []string) {
	const sample = 12
	var served []int
	for p := range lr.served {
		served = append(served, p)
	}
	sort.Ints(served)
	rng := rand.New(rand.NewSource(b.seed))
	rng.Shuffle(len(served), func(i, j int) { served[i], served[j] = served[j], served[i] })
	if len(served) > sample {
		served = served[:sample]
	}
	var errs []string
	for _, p := range served {
		if err := verifyReference(in.bodyOf(p), lr.served[p]); err != nil {
			errs = append(errs, fmt.Sprintf("problem %d: %v", p, err))
		}
	}
	verified := lr.window.ok - len(errs)
	if verified < 0 {
		verified = 0
	}
	return verified, errs
}

// bodyOf returns the body of the first request for problem p.
func (in *inputs) bodyOf(p int) []byte {
	for _, r := range in.requests {
		if r.problem == p {
			return r.body
		}
	}
	return nil
}

func (b *bench) endToEnd(in *inputs, lr *loadResult, stats service.Stats, setupS, retainedKB float64, verified int) error {
	p50, err := percentile(lr.lat, 0.5)
	if err != nil {
		return err
	}
	p90, err := percentile(lr.lat, 0.9)
	if err != nil {
		return err
	}
	want := min(tracked, len(in.problems))
	if len(lr.lengths) != want {
		return fmt.Errorf("only %d of the first %d distinct problems were served", len(lr.lengths), want)
	}
	var lengths []float64
	for _, l := range lr.lengths {
		lengths = append(lengths, l)
	}
	sort.Float64s(lengths) // a fixed summation order keeps the mean exact across runs
	attempted := float64(lr.window.attempted)
	b.put("setup_s", "s", setupS)
	b.put("throughput_rps", "1/s", float64(lr.window.ok)/lr.elapsed)
	b.put("latency_p50_ms", "ms", p50)
	b.put("latency_p90_ms", "ms", p90)
	b.note("latency_samples", "count", float64(len(lr.lat)))
	b.note("failed_ratio", "ratio", float64(lr.window.failed())/attempted)
	b.put("verified_ratio", "ratio", float64(verified)/attempted)
	b.put("makespan_mean", "time", mean(lengths))
	b.put("alloc_mb_per_req", "MB", float64(lr.allocated)/1e6/attempted)
	b.put("retained_kb_per_schedule", "kB", retainedKB/float64(max(stats.SchedulerRuns, 1)))
	b.note("scheduler_runs", "count", float64(stats.SchedulerRuns))
	return nil
}

// counter reads a counter or gauge from a registry snapshot; 0 when
// absent.
func counter(reg *obsv.Registry, name string) float64 {
	for _, s := range reg.Gather().Samples {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}
