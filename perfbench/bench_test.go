package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"ftbar/internal/core"
	"ftbar/internal/gen"
	"ftbar/internal/sched"
	"ftbar/internal/wire"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // unsorted on purpose
	}
	if v, err := percentile(samples, 0.9); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with exactly 10 beyond", v, err)
	}
	if _, err := percentile(samples, 0.95); err == nil {
		t.Fatal("p95 of 100 samples has 5 beyond it and must be refused")
	}
	if _, err := percentile(samples[:99], 0.9); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(samples[:20], 0.5); err != nil || v != 90 {
		t.Fatalf("p50 of 81..100 = %v, %v; want 90", v, err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps 1: the union counts once
		{ID: 3, Parent: 0, Start: 90, End: 120}, // clipped to the parent's end
		{ID: 4, Parent: 1, Start: 12, End: 18},  // a grandchild reduces only its parent
		{ID: 5, Parent: -1, Start: 200, End: 210},
	}
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRecorderNests(t *testing.T) {
	var spans []span
	r := &recorder{lane: "l", spans: &spans}
	outer := r.begin("outer", 7)
	if err := r.call("inner", 7, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	r.end(outer)
	if len(spans) != 2 || spans[1].Parent != outer || spans[0].Parent != -1 || spans[1].Request != 7 {
		t.Fatalf("spans = %+v", spans)
	}
}

// solved returns a small problem's request body and a correct reply.
func solved(t *testing.T) (*inputs, *wire.ScheduleReply) {
	t.Helper()
	p, err := gen.Generate(gen.Params{N: 12, CCR: 1, Procs: 4, Npf: 1, Topology: gen.TopoRing, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := newProblem(p)
	if err != nil {
		t.Fatal(err)
	}
	in := &inputs{problems: []problem{pr}, requests: []request{{problem: 0}}, seq: []int{0}}
	if err := in.encode(); err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.Schedule.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return in, &wire.ScheduleReply{ScheduleResponse: &wire.ScheduleResponse{
		Length: res.Schedule.Length(), Steps: len(res.Steps), Schedule: data,
	}}
}

func TestVerificationRejectsTamperedSchedule(t *testing.T) {
	in, reply := solved(t)
	body := in.requests[0].body
	if err := checkReply(reply, in.expect(0)); err != nil {
		t.Fatalf("correct reply rejected: %v", err)
	}
	if err := verifyReference(body, reply.Schedule); err != nil {
		t.Fatalf("correct schedule rejected: %v", err)
	}
	// Move one replica's end time: still a well-formed document.
	var doc sched.Doc
	if err := json.Unmarshal(reply.Schedule, &doc); err != nil {
		t.Fatal(err)
	}
	doc.Replicas[0].End += 0.5
	tampered, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyReference(body, tampered); err == nil {
		t.Fatal("tampered schedule bytes passed verification")
	}
	short := *reply.ScheduleResponse
	short.Steps--
	if err := checkReply(&wire.ScheduleReply{ScheduleResponse: &short}, in.expect(0)); err == nil {
		t.Fatal("a reply with a missing step passed its checks")
	}
	long := *reply.ScheduleResponse
	long.Length++
	if err := checkReply(&wire.ScheduleReply{ScheduleResponse: &long}, in.expect(0)); err == nil {
		t.Fatal("a reply whose length disagrees with its document passed its checks")
	}
}

func TestAccounting(t *testing.T) {
	in, reply := solved(t)
	good, err := encodeReply(reply)
	if err != nil {
		t.Fatal(err)
	}
	bad := *reply.ScheduleResponse
	bad.Steps++
	wrong, err := encodeReply(&wire.ScheduleReply{ScheduleResponse: &bad})
	if err != nil {
		t.Fatal(err)
	}
	answers := []func(http.ResponseWriter){
		func(w http.ResponseWriter) { w.Write(good) },
		func(w http.ResponseWriter) { http.Error(w, "full", http.StatusTooManyRequests) },
		func(w http.ResponseWriter) { http.Error(w, "down", http.StatusServiceUnavailable) },
		func(w http.ResponseWriter) { http.Error(w, "bad", http.StatusUnprocessableEntity) },
		func(w http.ResponseWriter) { w.Write([]byte(`{"length": `)) }, // truncated reply
		func(w http.ResponseWriter) { w.Write(wrong) },                 // fails verification
	}
	var next atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		answers[(next.Add(1)-1)%int64(len(answers))](w)
	}))
	cl := &client{http: srv.Client(), url: srv.URL, served: map[int][]byte{}, lengths: map[int]float64{}}
	for range answers {
		cl.do(in, 0, true)
	}
	srv.Close()
	cl.do(in, 0, true) // transport error: nothing listens any more
	cl.do(in, 0, false)

	got := cl.window
	want := tally{attempted: 7, ok: 1, rejected: 1, server: 1, status: 1, transport: 2, verify: 1}
	if got != want {
		t.Fatalf("window tally = %+v, want %+v", got, want)
	}
	if got.attempted != got.ok+got.failed() {
		t.Fatalf("attempted %d != ok %d + failed %d", got.attempted, got.ok, got.failed())
	}
	if cl.warm.attempted != 1 || cl.warm.failed() != 1 {
		t.Fatalf("warm-up tally = %+v, want one failed request", cl.warm)
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if _, err := m.workload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(bf.Workloads) != len(m.Workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, workloads.json %d", len(bf.Workloads), len(m.Workloads))
	}
}

// TestRunReportsDeclaredMetrics runs the cluster workload briefly in both
// modes and checks each reports exactly the metrics BENCHMARK.json
// declares for it, with their units, on verified outputs.
func TestRunReportsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a two-worker cluster for a few seconds")
	}
	bf := readBenchmarkFile(t)
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	m.WarmupSeconds, m.SetupRepeats = 0.5, 1
	w, err := m.workload("explore-cluster")
	if err != nil {
		t.Fatal(err)
	}
	seconds := 2.0
	if raceEnabled {
		seconds = 15
	}
	for _, traced := range []bool{false, true} {
		declared := bf.EndToEnd
		if traced {
			declared = bf.PerLayer
		}
		b := &bench{m: m, w: w, seed: 1, seconds: seconds, traced: traced,
			spanFile: filepath.Join(t.TempDir(), "spans.json"), log: io.Discard}
		res, err := b.run()
		if err != nil {
			t.Fatalf("traced=%t: %v", traced, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("traced=%t: correct=%t attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(declared) {
			t.Errorf("traced=%t: %d metrics reported, %d declared", traced, len(res.Metrics), len(declared))
		}
		for _, d := range declared {
			if got, ok := res.Metrics[d.Name]; !ok || got.Unit != d.Unit {
				t.Errorf("traced=%t: metric %s reported as %+v (present %t), declared unit %s", traced, d.Name, got, ok, d.Unit)
			}
		}
	}
}
