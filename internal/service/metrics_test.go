package service

import (
	"context"
	"errors"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ftbar/internal/obsv"
	"ftbar/internal/wire"
)

// sampleValue digs a counter/gauge reading out of a registry snapshot.
func sampleValue(tb testing.TB, snap obsv.Snapshot, name string) float64 {
	tb.Helper()
	for _, s := range snap.Samples {
		if s.Name == name {
			return s.Value
		}
	}
	tb.Fatalf("snapshot has no sample %q", name)
	return 0
}

// TestCountersReconcileUnderConcurrentLoad hammers the service from many
// goroutines and checks the counter algebra the stats endpoint promises:
// hits + misses == requests, scheduler_runs == misses (no rejections on
// the blocking path), and the planner counters prove the engine did
// cache-accounted preview work.
func TestCountersReconcileUnderConcurrentLoad(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()
	ctx := context.Background()

	const clients = 16
	const perClient = 8
	const distinct = 8
	var iter atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				i := iter.Add(1)
				req := &wire.ScheduleRequest{Problem: genProblem(t, int64(i)%distinct)}
				if _, err := s.Schedule(ctx, req); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}

	st := s.Stats()
	total := uint64(clients * perClient)
	if st.Requests != total {
		t.Errorf("requests = %d, want %d", st.Requests, total)
	}
	if st.CacheHits+st.CacheMisses != st.Requests {
		t.Errorf("hits %d + misses %d != requests %d", st.CacheHits, st.CacheMisses, st.Requests)
	}
	if st.SchedulerRuns != st.CacheMisses {
		t.Errorf("scheduler_runs %d != misses %d with no rejections", st.SchedulerRuns, st.CacheMisses)
	}
	if st.Rejected != 0 || st.Errors != 0 {
		t.Errorf("unexpected rejected=%d errors=%d", st.Rejected, st.Errors)
	}
	if st.CacheMisses < distinct {
		t.Errorf("misses %d below the %d distinct problems", st.CacheMisses, distinct)
	}
	if st.LatencyP50Ms <= 0 || st.LatencyP99Ms < st.LatencyP50Ms {
		t.Errorf("implausible percentiles p50=%v p99=%v", st.LatencyP50Ms, st.LatencyP99Ms)
	}

	snap := s.Metrics().Gather()
	if v := sampleValue(t, snap, "ftbar_service_in_flight"); v != 0 {
		t.Errorf("in-flight gauge %v after all requests returned", v)
	}
	if v := sampleValue(t, snap, "ftbar_service_requests_total"); uint64(v) != total {
		t.Errorf("exposition requests %v != %d", v, total)
	}
	// Planner counters: every scheduler run contributed rounds and
	// computed previews; the σ-cache screen only helps within a run, so
	// computed >= rounds >= runs.
	rounds := sampleValue(t, snap, "ftbar_planner_rounds_total")
	computed := sampleValue(t, snap, "ftbar_planner_previews_computed_total")
	if rounds < float64(st.SchedulerRuns) {
		t.Errorf("planner rounds %v below %d scheduler runs", rounds, st.SchedulerRuns)
	}
	if computed <= 0 {
		t.Errorf("planner computed %v previews, want > 0", computed)
	}
}

// TestRejectionCounters pins the 429 path's bookkeeping: a rejected
// request still counts as a request and a cache miss (it owned the entry
// before admission failed), and only the rejected counter separates it
// from an admitted miss.
func TestRejectionCounters(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 16)
	s := New(Config{Workers: 1, QueueSize: 1})
	s.computeHook = func() {
		entered <- struct{}{}
		<-gate
	}
	defer s.Close()
	ctx := context.Background()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Schedule(ctx, &wire.ScheduleRequest{Problem: genProblem(t, int64(30+i))}); err != nil {
				t.Errorf("held request %d: %v", i, err)
			}
		}(i)
		if i == 0 {
			<-entered
		}
	}
	for len(s.queue) == 0 {
		runtime.Gosched()
	}
	const overflow = 3
	for i := 0; i < overflow; i++ {
		if _, err := s.TrySchedule(ctx, &wire.ScheduleRequest{Problem: genProblem(t, int64(40+i))}); !errors.Is(err, wire.ErrOverloaded) {
			t.Fatalf("overflow %d got %v, want ErrOverloaded", i, err)
		}
	}
	st := s.Stats()
	if st.Rejected != overflow {
		t.Errorf("rejected = %d, want %d", st.Rejected, overflow)
	}
	if st.Requests != 2+overflow {
		t.Errorf("requests = %d, want %d", st.Requests, 2+overflow)
	}
	if st.CacheMisses != 2+overflow {
		t.Errorf("misses = %d, want %d (a rejection is still a miss)", st.CacheMisses, 2+overflow)
	}
	if st.CacheHits != 0 {
		t.Errorf("hits = %d, want 0", st.CacheHits)
	}
	close(gate)
	wg.Wait()
	// Only the two admitted misses reached the scheduler.
	if got := s.Stats().SchedulerRuns; got != 2 {
		t.Errorf("scheduler_runs = %d, want 2", got)
	}
}

// TestConcurrentScrapes races /metrics and /v1/stats scrapes against
// live scheduling load — the race detector (CI runs the suite with
// -race) is the assertion; the values just need to stay sane.
func TestConcurrentScrapes(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	h := s.Handler()
	ctx := context.Background()

	stopScrape := make(chan struct{})
	var scrapes sync.WaitGroup
	for g := 0; g < 4; g++ {
		scrapes.Add(1)
		go func() {
			defer scrapes.Done()
			for {
				select {
				case <-stopScrape:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
				if rec.Code != 200 {
					t.Errorf("metrics scrape status %d", rec.Code)
					return
				}
				rec = httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
				if rec.Code != 200 {
					t.Errorf("stats scrape status %d", rec.Code)
					return
				}
				s.Stats()
				s.Metrics().Gather()
			}
		}()
	}

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < 6; k++ {
				if _, err := s.Schedule(ctx, &wire.ScheduleRequest{Problem: genProblem(t, int64(k%3))}); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stopScrape)
	scrapes.Wait()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"ftbar_service_requests_total",
		"ftbar_service_queue_depth",
		`ftbar_http_request_duration_seconds_bucket{path="/v1/stats",le=`,
		"ftbar_planner_previews_computed_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
