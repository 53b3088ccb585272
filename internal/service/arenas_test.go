package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ftbar/internal/wire"
)

// TestServiceWarmStarts pins the arena value story inside the service:
// the same problem requested with different Include flags misses the
// response cache (the flags are part of the key) but warm-starts the
// scheduler from the first run's decision log, and the replayed schedule
// is byte-identical to the searched one.
func TestServiceWarmStarts(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	p := genProblem(t, 7)
	cold, err := s.Schedule(context.Background(), &wire.ScheduleRequest{Problem: p})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.planner.warmStarts.Value(); got != 0 {
		t.Fatalf("first run warm-started (%d), want a cold search", got)
	}
	warm, err := s.Schedule(context.Background(), &wire.ScheduleRequest{
		Problem: p, Include: wire.Include{Stats: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cached {
		t.Fatal("second request hit the response cache; the test needs a compute")
	}
	if got := s.planner.warmStarts.Value(); got != 1 {
		t.Errorf("warm starts = %d, want 1", got)
	}
	if s.planner.replayedDecns.Value() == 0 {
		t.Error("no decisions replayed on the warm start")
	}
	if !bytes.Equal(cold.Schedule, warm.Schedule) {
		t.Error("warm-started schedule differs from the cold one")
	}
	if warm.Stats == nil {
		t.Error("warm response missing the requested stats")
	}
}

// TestServiceArenaDisabled pins the off switch: a negative ArenaSize
// disables the pool and every repeat request searches cold.
func TestServiceArenaDisabled(t *testing.T) {
	s := New(Config{Workers: 1, ArenaSize: -1})
	defer s.Close()
	p := genProblem(t, 8)
	for _, inc := range []wire.Include{{}, {Stats: true}, {Gantt: true}} {
		if _, err := s.Schedule(context.Background(), &wire.ScheduleRequest{Problem: p, Include: inc}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.planner.warmStarts.Value(); got != 0 {
		t.Errorf("disabled arena pool warm-started %d runs", got)
	}
	if s.arenas.shapes() != 0 || s.arenas.records() != 0 {
		t.Error("disabled arena pool reports live arenas")
	}
}

// TestPersistCarriesWarmStartLogs is the restart round trip for the
// snapshot's decision records: records saved alongside the cache let the
// restarted service replay — not re-search — a problem it has seen, even
// when the request misses the response cache.
func TestPersistCarriesWarmStartLogs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	p := genProblem(t, 9)

	first := New(Config{Workers: 1})
	if _, err := first.Schedule(context.Background(), &wire.ScheduleRequest{Problem: p}); err != nil {
		t.Fatal(err)
	}
	if _, err := first.SaveCacheFile(path); err != nil {
		t.Fatal(err)
	}
	first.Close()

	second := New(Config{Workers: 1})
	defer second.Close()
	if _, err := second.LoadCacheFile(path); err != nil {
		t.Fatal(err)
	}
	if got := second.arenas.records(); got != 1 {
		t.Fatalf("restored %d warm-start records, want 1", got)
	}
	// Different Include flags: a response-cache miss, so the scheduler
	// runs — from the restored log. Regenerate the problem so the content
	// key is recomputed the way a wire request would compute it.
	reply, err := second.Schedule(context.Background(), &wire.ScheduleRequest{
		Problem: genProblem(t, 9), Include: wire.Include{Stats: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Cached {
		t.Fatal("request hit the response cache; the test needs a compute")
	}
	if got := second.planner.warmStarts.Value(); got != 1 {
		t.Errorf("restored service warm starts = %d, want 1", got)
	}
}

// TestLoadSnapshotWithoutRecordsEntriesOnly pins the snapshot version
// gate. A snapshot saves as version 4, and one without a Records field
// still restores its cache entries; the arenas just start cold. The same
// snapshot relabelled with an older version is refused and restores
// nothing: versions 2 and 3 keyed responses by an engine name and
// records by the relay-blind planner flag, so none of their keys could
// match a current request, and version 1 predates the joint planner.
func TestLoadSnapshotWithoutRecordsEntriesOnly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.json")
	first := New(Config{Workers: 1})
	req := &wire.ScheduleRequest{Problem: genProblem(t, 10)}
	if _, err := first.Schedule(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if _, err := first.SaveCacheFile(path); err != nil {
		t.Fatal(err)
	}
	first.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap cacheSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Version != 4 {
		t.Fatalf("saved snapshot version %d, want 4", snap.Version)
	}
	write := func(name string) string {
		t.Helper()
		out, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	snap.Records = nil
	entriesOnly := write("entries.json")

	second := New(Config{Workers: 1})
	defer second.Close()
	n, err := second.LoadCacheFile(entriesOnly)
	if err != nil {
		t.Fatalf("snapshot without records rejected: %v", err)
	}
	if n != 1 {
		t.Errorf("restored %d entries from the snapshot without records, want 1", n)
	}
	if got := second.arenas.records(); got != 0 {
		t.Errorf("snapshot without records restored %d warm-start records", got)
	}
	reply, err := second.Schedule(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Cached {
		t.Error("restored entry not served as a cache hit")
	}

	for _, old := range []int{3, 2, 1} {
		snap.Version = old
		path := write(fmt.Sprintf("v%d.json", old))
		cold := New(Config{Workers: 1})
		if _, err := cold.LoadCacheFile(path); err == nil {
			t.Errorf("version %d snapshot loaded without error", old)
		}
		if got := cold.Stats().CacheEntries; got != 0 {
			t.Errorf("refused version %d snapshot left %d entries behind", old, got)
		}
		cold.Close()
	}
}
