package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"syscall"

	"ftbar/internal/arch"
	"ftbar/internal/gen"
	"ftbar/internal/spec"
	"ftbar/internal/wire"
)

//go:embed workloads.json
var manifestJSON []byte

// manifest is the part of workloads.json the benchmark executes; the rest
// of the file documents predictions and deferred layers.
type manifest struct {
	WarmupSeconds float64    `json:"warmup_seconds"`
	SetupRepeats  int        `json:"setup_repeats"`
	Workloads     []workload `json:"workloads"`
}

type workload struct {
	Name       string    `json:"name"`
	Stack      string    `json:"stack"`
	Generator  generator `json:"generator"`
	Bases      int       `json:"bases"`
	Mix        []mixPart `json:"mix"`
	SweepEvery int       `json:"sweep_every"`
	MaxRate    float64   `json:"max_rate_rps"`
}

type generator struct {
	Topology string  `json:"topology"`
	Procs    int     `json:"procs"`
	Family   string  `json:"family"`
	Tasks    int     `json:"tasks"`
	Npf      int     `json:"npf"`
	CCR      float64 `json:"ccr"`
}

type mixPart struct {
	Kind  string  `json:"kind"`
	Share float64 `json:"share"`
}

func loadManifest() (*manifest, error) {
	var m manifest
	if err := json.Unmarshal(manifestJSON, &m); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return &m, nil
}

func (m *manifest) workload(name string) (*workload, error) {
	for i := range m.Workloads {
		if m.Workloads[i].Name == name {
			return &m.Workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// params returns the generator parameters of problem number i under seed.
func (g generator) params(seed int64, i int) (gen.Params, error) {
	topo, err := gen.ParseTopology(g.Topology)
	if err != nil {
		return gen.Params{}, err
	}
	fam, err := gen.ParseFamily(g.Family)
	if err != nil {
		return gen.Params{}, err
	}
	return gen.Params{
		N: g.Tasks, CCR: g.CCR, Procs: g.Procs, Npf: g.Npf,
		Topology: topo, Family: fam, Seed: seed*1_000_003 + int64(i),
	}, nil
}

// problem is one distinct scheduling problem of a workload; p is nil
// once the request bodies are encoded.
type problem struct {
	p     *spec.Problem
	tasks int
	npf   int
	procs int
}

// request is one distinct request body: a problem plus include flags.
type request struct {
	problem int
	include wire.Include
	body    []byte
}

// inputs is everything a run sends, generated from the seed before any
// clock starts. seq lists request indices in send order; problems and
// requests are in order of first appearance in seq.
type inputs struct {
	problems []problem
	requests []request
	seq      []int
}

// generate builds the request sequence of w for a run of the given
// length. The sequence holds enough requests for max_rate_rps over the
// whole run.
func generate(w *workload, seed int64, seconds float64) (*inputs, error) {
	n := int(math.Ceil(w.MaxRate * seconds))
	build := generateExplore
	if w.Bases == 0 {
		build = generateFresh
	}
	in, err := build(w, seed, n)
	if err != nil {
		return nil, err
	}
	return in, in.pack()
}

// pack moves the request bodies into one anonymous mapping outside the
// Go heap. The bodies are the client's, not the program's: on the heap
// they would raise the collector's heap goal of the program under test
// and so change how often it collects.
func (in *inputs) pack() error {
	total := 0
	for _, r := range in.requests {
		total += len(r.body)
	}
	if total == 0 {
		return nil
	}
	mem, err := syscall.Mmap(-1, 0, total, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return fmt.Errorf("map request bodies: %w", err)
	}
	off := 0
	for i := range in.requests {
		r := &in.requests[i]
		n := copy(mem[off:], r.body)
		r.body = mem[off : off+n : off+n]
		off += n
	}
	return nil
}

func generateFresh(w *workload, seed int64, n int) (*inputs, error) {
	in := &inputs{problems: make([]problem, n), requests: make([]request, n), seq: make([]int, n)}
	err := parallel(n, func(i int) error {
		params, err := w.Generator.params(seed, i)
		if err != nil {
			return err
		}
		p, err := gen.Generate(params)
		if err != nil {
			return err
		}
		in.problems[i], err = newProblem(p)
		if err != nil {
			return err
		}
		in.requests[i] = request{problem: i}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range in.seq {
		in.seq[i] = i
	}
	return in, in.encode()
}

func newProblem(p *spec.Problem) (problem, error) {
	tg, err := p.Compile()
	if err != nil {
		return problem{}, err
	}
	return problem{p: p, tasks: tg.NumTasks(), npf: p.FaultModel().Npf, procs: p.Arc.NumProcs()}, nil
}

// encode marshals every request body, then drops the problems: every
// later use decodes the body the program saw, and the benchmark's own
// live heap stays small next to the program's.
func (in *inputs) encode() error {
	err := parallel(len(in.requests), func(i int) error {
		r := &in.requests[i]
		body, err := json.Marshal(&wire.ScheduleRequest{Problem: in.problems[r.problem].p, Include: r.include})
		r.body = body
		return err
	})
	for i := range in.problems {
		in.problems[i].p = nil
	}
	return err
}

// parallel runs fn(0..n-1) on NumCPU goroutines and returns the first
// error.
func parallel(n int, fn func(int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  = make(chan int)
	)
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return first
}

// explorer builds the design-exploration sequence: episodes around one
// base problem each, drawing repeats, include variants and Derive
// children from the workload's mix. Problems are numbered in order of
// first appearance, bases included.
type explorer struct {
	in      *inputs
	rng     *rand.Rand
	bases   []*spec.Problem
	byKey   map[string]int // problem identity -> problem index
	reqs    map[[2]int]int // (problem, include code) -> request index
	kinds   []mixPart      // drawn kinds, shares normalised
	episode int            // requests per episode, base included
	sweep   int
	fresh   int // requests new to the sequence so far
}

func generateExplore(w *workload, seed int64, n int) (*inputs, error) {
	ex := &explorer{
		in:    &inputs{},
		rng:   rand.New(rand.NewSource(seed)),
		byKey: map[string]int{},
		reqs:  map[[2]int]int{},
		sweep: w.SweepEvery,
	}
	var drawn float64
	for _, part := range w.Mix {
		if part.Kind == "base" {
			ex.episode = int(math.Round(1 / part.Share))
			continue
		}
		ex.kinds = append(ex.kinds, part)
		drawn += part.Share
	}
	if ex.episode < 1 || drawn <= 0 {
		return nil, fmt.Errorf("workload %s: mix needs a base share and drawn kinds", w.Name)
	}
	for i := range ex.kinds {
		ex.kinds[i].Share /= drawn
	}
	for b := 0; b < w.Bases; b++ {
		params, err := w.Generator.params(seed, b)
		if err != nil {
			return nil, err
		}
		p, err := gen.Generate(params)
		if err != nil {
			return nil, err
		}
		ex.bases = append(ex.bases, p)
	}
	for len(ex.in.seq) < n {
		if err := ex.runEpisode(n); err != nil {
			return nil, err
		}
	}
	return ex.in, ex.in.encode()
}

func (ex *explorer) addProblem(id string, p *spec.Problem) (int, error) {
	if idx, ok := ex.byKey[id]; ok {
		return idx, nil
	}
	pr, err := newProblem(p)
	if err != nil {
		return 0, err
	}
	ex.in.problems = append(ex.in.problems, pr)
	idx := len(ex.in.problems) - 1
	ex.byKey[id] = idx
	return idx, nil
}

// send appends a request for problem with include to the sequence,
// allocating it on first use. Every sweep-th new request also carries
// include.sweep.
func (ex *explorer) send(prob int, inc wire.Include) {
	code := includeCode(inc)
	idx, ok := ex.reqs[[2]int{prob, code}]
	if !ok {
		ex.fresh++
		if ex.sweep > 0 && ex.fresh%ex.sweep == 0 {
			inc.Sweep = true
		}
		ex.in.requests = append(ex.in.requests, request{problem: prob, include: inc})
		idx = len(ex.in.requests) - 1
		ex.reqs[[2]int{prob, code}] = idx
	}
	ex.in.seq = append(ex.in.seq, idx)
}

func includeCode(inc wire.Include) int {
	code := 0
	if inc.Gantt {
		code |= 1
	}
	if inc.Stats {
		code |= 2
	}
	if inc.Sweep {
		code |= 4
	}
	return code
}

func (ex *explorer) runEpisode(n int) error {
	b := ex.rng.Intn(len(ex.bases))
	base, err := ex.addProblem(fmt.Sprintf("base%d", b), ex.bases[b])
	if err != nil {
		return err
	}
	probs := []int{base}
	sent := []int{}
	ex.send(base, wire.Include{})
	sent = append(sent, ex.in.seq[len(ex.in.seq)-1])
	for k := 1; k < ex.episode && len(ex.in.seq) < n; k++ {
		switch kind := ex.draw(); kind {
		case "repeat":
			ex.in.seq = append(ex.in.seq, sent[ex.rng.Intn(len(sent))])
		case "include":
			inc := wire.Include{Stats: true}
			if ex.rng.Intn(2) == 0 {
				inc = wire.Include{Gantt: true}
			}
			ex.send(probs[ex.rng.Intn(len(probs))], inc)
			sent = append(sent, ex.in.seq[len(ex.in.seq)-1])
		default:
			child, err := ex.derive(b, kind)
			if err != nil {
				return err
			}
			probs = append(probs, child)
			ex.send(child, wire.Include{})
			sent = append(sent, ex.in.seq[len(ex.in.seq)-1])
		}
	}
	return nil
}

func (ex *explorer) draw() string {
	u := ex.rng.Float64()
	for _, part := range ex.kinds {
		if u < part.Share {
			return part.Kind
		}
		u -= part.Share
	}
	return ex.kinds[len(ex.kinds)-1].Kind
}

// derive builds (or finds) a spec.Derive child of base b.
func (ex *explorer) derive(b int, kind string) (int, error) {
	parent := ex.bases[b]
	var m spec.Mutation
	var id string
	switch kind {
	case "rtc":
		d := 10 + 90*ex.rng.Float64()
		m = spec.Mutation{Kind: spec.MutRtc, Rtc: spec.Rtc{Deadline: d}}
		id = fmt.Sprintf("base%d+rtc:%v", b, d)
	case "forbid-medium":
		med := ex.rng.Intn(parent.Arc.NumMedia())
		m = spec.Mutation{Kind: spec.MutForbidMedium, Medium: arch.MediumID(med)}
		id = fmt.Sprintf("base%d+nomedium:%d", b, med)
	case "crash-proc":
		proc := ex.rng.Intn(parent.Arc.NumProcs())
		m = spec.Mutation{Kind: spec.MutCrashProc, Proc: arch.ProcID(proc)}
		id = fmt.Sprintf("base%d+crash:%d", b, proc)
	default:
		return 0, fmt.Errorf("unknown mix kind %q", kind)
	}
	if idx, ok := ex.byKey[id]; ok {
		return idx, nil
	}
	child, _, err := parent.Derive(m)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", id, err)
	}
	return ex.addProblem(id, child)
}
