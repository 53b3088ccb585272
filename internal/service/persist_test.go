package service

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"ftbar/internal/gen"
	"ftbar/internal/paperex"
	"ftbar/internal/spec"
	"ftbar/internal/wire"
)

// TestCachePersistenceRoundTrip is the restart round trip: a service
// computes schedules, snapshots its cache to disk, and a freshly started
// service restores the snapshot and serves the same requests as cache
// hits without ever running the scheduler.
func TestCachePersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	reqs := []*wire.ScheduleRequest{
		{Problem: paperex.Problem()},
		{Problem: genProblem(t, 41)},
		{Problem: genProblem(t, 42), Include: wire.Include{Stats: true}},
	}

	first := New(Config{Workers: 2})
	var want []*wire.ScheduleReply
	for _, req := range reqs {
		reply, err := first.Schedule(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, reply)
	}
	n, err := first.SaveCacheFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(reqs) {
		t.Fatalf("saved %d entries, want %d", n, len(reqs))
	}
	first.Close()

	second := New(Config{Workers: 2})
	defer second.Close()
	restored, err := second.LoadCacheFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored != len(reqs) {
		t.Fatalf("restored %d entries, want %d", restored, len(reqs))
	}
	for i, req := range reqs {
		reply, err := second.Schedule(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !reply.Cached {
			t.Errorf("request %d not served from the restored cache", i)
		}
		a, _ := json.Marshal(want[i].ScheduleResponse)
		b, _ := json.Marshal(reply.ScheduleResponse)
		if string(a) != string(b) {
			t.Errorf("request %d: restored response differs:\n%s\n%s", i, a, b)
		}
	}
	if st := second.Stats(); st.SchedulerRuns != 0 {
		t.Errorf("restored service ran the scheduler %d times", st.SchedulerRuns)
	}
}

// TestLoadCacheFileMissingAndCorrupt pins the edges: a missing file is a
// cold start, a corrupt one is an error, a wrong version is an error.
func TestLoadCacheFileMissingAndCorrupt(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if n, err := s.LoadCacheFile(filepath.Join(t.TempDir(), "absent.json")); err != nil || n != 0 {
		t.Errorf("missing file: n=%d err=%v, want 0, nil", n, err)
	}
	dir := t.TempDir()
	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadCacheFile(corrupt); err == nil {
		t.Error("corrupt file loaded without error")
	}
	stale := filepath.Join(dir, "stale.json")
	if err := os.WriteFile(stale, []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadCacheFile(stale); err == nil {
		t.Error("wrong snapshot version loaded without error")
	}
}

// TestRestoreRespectsCapacity pins the LRU bound on restore: a snapshot
// larger than the cache keeps only the most recently used entries.
func TestRestoreRespectsCapacity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	big := New(Config{Workers: 1, CacheSize: 16})
	for seed := int64(1); seed <= 5; seed++ {
		if _, err := big.Schedule(context.Background(), &wire.ScheduleRequest{Problem: genProblem(t, seed)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := big.SaveCacheFile(path); err != nil {
		t.Fatal(err)
	}
	big.Close()

	small := New(Config{Workers: 1, CacheSize: 2})
	defer small.Close()
	if _, err := small.LoadCacheFile(path); err != nil {
		t.Fatal(err)
	}
	if got := small.Stats().CacheEntries; got != 2 {
		t.Errorf("restored %d entries into a 2-entry cache", got)
	}
	// The most recently used problem (seed 5) must be among the
	// survivors.
	reply, err := small.Schedule(context.Background(), &wire.ScheduleRequest{Problem: genProblem(t, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Cached {
		t.Error("most recently used entry evicted on restore")
	}
}

// TestSweepPreservesNmf pins the fault-model plumbing through the sweep
// endpoint: varying Npf keeps the problem's medium budget.
func TestSweepPreservesNmf(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	p, err := gen.Generate(gen.Params{N: 8, CCR: 1, Procs: 4, Npf: 1, Nmf: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Sweep(context.Background(), &wire.SweepRequest{Problem: p, Npfs: []int{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	sawOverhead := false
	for _, v := range resp.Variants {
		if v.Error != "" {
			t.Fatalf("npf=%d variant failed: %s", v.Npf, v.Error)
		}
		var doc struct {
			Npf int `json:"npf"`
			Nmf int `json:"nmf"`
		}
		if err := json.Unmarshal(v.Schedule, &doc); err != nil {
			t.Fatal(err)
		}
		// The medium budget is preserved, clamped to the variant's Npf so
		// the Npf=0 baseline stays schedulable.
		wantNmf := 1
		if v.Npf < 1 {
			wantNmf = v.Npf
		}
		if doc.Npf != v.Npf || doc.Nmf != wantNmf {
			t.Errorf("variant npf=%d scheduled as Npf=%d Nmf=%d, want Nmf=%d", v.Npf, doc.Npf, doc.Nmf, wantNmf)
		}
		sawOverhead = sawOverhead || v.Overhead != 0
	}
	if !sawOverhead {
		t.Error("sweep with a link budget computed no overheads (baseline missing?)")
	}
}

// TestScheduleRequestFaultsWire pins the wire shape of the unified fault
// budget: a request whose problem carries Nmf round-trips with a faults
// object, and a legacy npf-only document decodes into the same budget it
// always meant.
func TestScheduleRequestFaultsWire(t *testing.T) {
	p := paperex.Problem()
	p.SetFaults(spec.FaultModel{Npf: 1, Nmf: 1})
	roundTrip(t, &wire.ScheduleRequest{Problem: p}, &wire.ScheduleRequest{})

	legacy := []byte(`{"problem": ` + mustProblemJSON(t, paperex.Problem()) + `}`)
	var req wire.ScheduleRequest
	if err := json.Unmarshal(legacy, &req); err != nil {
		t.Fatal(err)
	}
	if got := req.Problem.FaultModel(); got != (spec.FaultModel{Npf: 1}) {
		t.Errorf("legacy npf-only request resolved %v", got)
	}
}

func mustProblemJSON(t *testing.T, p *spec.Problem) string {
	t.Helper()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
