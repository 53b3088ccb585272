package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"ftbar/internal/core"
	"ftbar/internal/gen"
	"ftbar/internal/paperex"
	"ftbar/internal/spec"
	"ftbar/internal/wire"
)

// postSchedule drives the real HTTP surface and returns the decoded reply.
func postSchedule(t *testing.T, url string, req *wire.ScheduleRequest) *wire.ScheduleReply {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/schedule: status %d", resp.StatusCode)
	}
	var reply wire.ScheduleReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	return &reply
}

// TestDifferentialAgainstCore pins the acceptance criterion: the schedule
// a client receives through the whole HTTP/JSON layer is bit-identical to
// a direct core.Run on the same problem, for the paper example and ten
// seeded problems across the four topologies.
func TestDifferentialAgainstCore(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	problems := []*spec.Problem{paperex.Problem()}
	for seed := int64(1); seed <= 10; seed++ {
		p, err := gen.Generate(gen.Params{
			N: 15, CCR: 2, Procs: 4, Npf: int(seed % 2),
			Topology: gen.Topology(seed % 4), Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		problems = append(problems, p)
	}
	for i, p := range problems {
		direct, err := core.Run(p, core.Options{})
		if err != nil {
			t.Fatalf("problem %d: direct run: %v", i, err)
		}
		want, err := json.Marshal(direct.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		reply := postSchedule(t, srv.URL, &wire.ScheduleRequest{Problem: p})
		// The HTTP encoder pretty-prints; compact back to the canonical
		// form before the bit-identity check.
		var got bytes.Buffer
		if err := json.Compact(&got, reply.Schedule); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("problem %d: HTTP schedule differs from direct core run\nhttp: %s\ncore: %s",
				i, got.Bytes(), want)
		}
		if reply.Length != direct.Schedule.Length() || reply.MeetsRtc != direct.MeetsRtc {
			t.Errorf("problem %d: summary drifted: length %g vs %g, rtc %v vs %v",
				i, reply.Length, direct.Schedule.Length(), reply.MeetsRtc, direct.MeetsRtc)
		}
	}
	// The worked example's calibrated length survives the wire.
	reply := postSchedule(t, srv.URL, &wire.ScheduleRequest{Problem: paperex.Problem()})
	if math.Abs(reply.Length-13.05) > 1e-9 {
		t.Errorf("paper example length over HTTP = %g, want 13.05", reply.Length)
	}
	if !reply.Cached {
		t.Error("repeated paper example not served from cache")
	}
}

// TestHTTPSurface covers the remaining endpoints and error mappings.
func TestHTTPSurface(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	t.Run("healthz", func(t *testing.T) {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("healthz status %d", resp.StatusCode)
		}
	})

	t.Run("stats", func(t *testing.T) {
		postSchedule(t, srv.URL, &wire.ScheduleRequest{Problem: paperex.Problem(), Include: wire.Include{Gantt: true, Stats: true, Sweep: true}})
		resp, err := http.Get(srv.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if st.Workers < 1 || st.QueueCapacity < 1 || st.Requests < 1 {
			t.Errorf("implausible stats: %+v", st)
		}
	})

	t.Run("batch", func(t *testing.T) {
		var breq wire.BatchRequest
		for i := 0; i < 3; i++ {
			breq.Requests = append(breq.Requests, wire.ScheduleRequest{Problem: paperex.Problem()})
		}
		body, _ := json.Marshal(&breq)
		resp, err := http.Post(srv.URL+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var bresp wire.BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&bresp); err != nil {
			t.Fatal(err)
		}
		if len(bresp.Responses) != 3 {
			t.Fatalf("batch returned %d items", len(bresp.Responses))
		}
		for i, item := range bresp.Responses {
			if item.Error != "" || item.ScheduleResponse == nil {
				t.Errorf("batch item %d: %+v", i, item)
			}
		}
	})

	t.Run("sweep", func(t *testing.T) {
		body, _ := json.Marshal(&wire.SweepRequest{Problem: paperex.Problem(), Npfs: []int{0, 1}})
		resp, err := http.Post(srv.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sresp wire.SweepResponse
		if err := json.NewDecoder(resp.Body).Decode(&sresp); err != nil {
			t.Fatal(err)
		}
		if len(sresp.Variants) != 2 || sresp.Variants[1].Npf != 1 {
			t.Fatalf("sweep: %+v", sresp)
		}
		if sresp.Variants[1].Overhead <= 0 {
			t.Errorf("npf=1 overhead %g, want positive", sresp.Variants[1].Overhead)
		}
	})

	for name, tc := range map[string]struct {
		method, path, body string
		wantStatus         int
	}{
		"bad json":       {http.MethodPost, "/v1/schedule", "{", http.StatusBadRequest},
		"missing prob":   {http.MethodPost, "/v1/schedule", "{}", http.StatusBadRequest},
		"empty sweep":    {http.MethodPost, "/v1/sweep", `{"problem":null}`, http.StatusBadRequest},
		"wrong method":   {http.MethodGet, "/v1/schedule", "", http.StatusMethodNotAllowed},
		"stats not post": {http.MethodPost, "/v1/stats", "", http.StatusMethodNotAllowed},
	} {
		t.Run(name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
			}
		})
	}

	t.Run("unschedulable is 422", func(t *testing.T) {
		p := genProblem(t, 1)
		p.Npf = 5
		body, _ := json.Marshal(&wire.ScheduleRequest{Problem: p})
		resp, err := http.Post(srv.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("unschedulable problem: status %d, want 422", resp.StatusCode)
		}
	})

	t.Run("overloaded is 429", func(t *testing.T) {
		gate := make(chan struct{})
		entered := make(chan struct{}, 16)
		tiny := New(Config{Workers: 1, QueueSize: 1})
		tiny.computeHook = func() {
			entered <- struct{}{}
			<-gate
		}
		defer tiny.Close()
		tsrv := httptest.NewServer(tiny.Handler())
		defer tsrv.Close()
		post := func(seed int64) chan int {
			ch := make(chan int, 1)
			go func() {
				body, _ := json.Marshal(&wire.ScheduleRequest{Problem: genProblem(t, seed)})
				resp, err := http.Post(tsrv.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
				if err != nil {
					ch <- -1
					return
				}
				resp.Body.Close()
				ch <- resp.StatusCode
			}()
			return ch
		}
		first := post(100)
		<-entered // worker busy
		second := post(101)
		for len(tiny.queue) == 0 {
			runtime.Gosched()
		}
		// Pool and queue full: the next distinct request must bounce.
		body, _ := json.Marshal(&wire.ScheduleRequest{Problem: genProblem(t, 102)})
		resp, err := http.Post(tsrv.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("overflow status %d, want 429", resp.StatusCode)
		}
		close(gate)
		if got := <-first; got != http.StatusOK {
			t.Errorf("held request 1 finished with %d", got)
		}
		if got := <-second; got != http.StatusOK {
			t.Errorf("held request 2 finished with %d", got)
		}
	})
}
