package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ftbar/internal/wire"
)

// tally accounts for attempted requests: each one ends ok or in exactly
// one failure class.
type tally struct {
	attempted int
	ok        int
	rejected  int // 429
	server    int // 5xx
	status    int // any other non-200 status
	transport int // no reply, or an undecodable one
	verify    int // a 200 reply that failed its checks
}

func (t *tally) failed() int { return t.rejected + t.server + t.status + t.transport + t.verify }

// count adds one attempted request with its HTTP status (0 when the
// transport failed) and the verdict of its checks.
func (t *tally) count(status int, transportErr, verifyErr error) {
	t.attempted++
	switch {
	case transportErr != nil:
		t.transport++
	case status == http.StatusTooManyRequests:
		t.rejected++
	case status >= 500:
		t.server++
	case status != http.StatusOK:
		t.status++
	case verifyErr != nil:
		t.verify++
	default:
		t.ok++
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.ok += o.ok
	t.rejected += o.rejected
	t.server += o.server
	t.status += o.status
	t.transport += o.transport
	t.verify += o.verify
}

// tracked is the number of leading distinct problems whose served
// schedules are kept for makespan_mean and the reference sample.
const tracked = 64

// loadResult is the outcome of one closed-loop drive.
type loadResult struct {
	window    tally     // requests sent inside the timed window
	warm      tally     // requests sent during the warm-up
	mismatch  int       // problems two clients got different schedules for
	lat       []float64 // ms, ok requests of the window
	elapsed   float64   // window seconds, to its last completion
	exhausted bool      // the sequence ran out before the window ended
	allocated uint64    // bytes allocated by the process during the window
	depth     []float64 // sampled queue depth during the window
	served    map[int][]byte
	lengths   map[int]float64
	errs      []string // first few failure descriptions
}

// client is one closed-loop client on its own keep-alive connection.
type client struct {
	http    *http.Client
	url     string
	window  tally
	warm    tally
	lat     []float64
	served  map[int][]byte
	lengths map[int]float64
	errs    []string
}

// maxThink bounds the random pause a client takes before each request.
// Without it the two closed-loop clients fall into a fast or a slow mode
// that lasts for seconds (dense-fresh: p50 about 18 ms against 25 ms), and
// runs split between the modes; a 2 ms bound still left the fast mode in
// two runs of seven, 6 ms in none of eighteen.
const maxThink = 6 * time.Millisecond

// drive runs clients closed-loop over in.seq: a warm-up of warm, then a
// timed window of window. Each client pauses a seeded uniform think time
// below maxThink before each request. depth, when not nil, is sampled
// every 5 ms during the window.
func drive(url string, in *inputs, clients int, seed int64, warm, window time.Duration, depth func() int) (*loadResult, error) {
	var next atomic.Int64
	var exhausted atomic.Bool
	start := time.Now()
	windowStart, end := start.Add(warm), start.Add(warm+window)
	var lastDone atomic.Int64 // ns after windowStart of the last window completion

	cs := make([]*client, clients)
	var wg sync.WaitGroup
	for c := range cs {
		cs[c] = &client{
			// The timeout turns a request the stack never answers into a
			// transport failure instead of a hung run.
			http: &http.Client{Timeout: time.Minute,
				Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
			url:     url + "/v1/schedule",
			served:  map[int][]byte{},
			lengths: map[int]float64{},
		}
		wg.Add(1)
		go func(cl *client, rng *rand.Rand) {
			defer wg.Done()
			for {
				time.Sleep(time.Duration(rng.Int63n(int64(maxThink))))
				i := int(next.Add(1) - 1)
				if i >= len(in.seq) {
					exhausted.Store(true)
					return
				}
				now := time.Now()
				if now.After(end) {
					return
				}
				timed := !now.Before(windowStart)
				ms, t := cl.do(in, in.seq[i], timed)
				if timed {
					if t {
						cl.lat = append(cl.lat, ms)
					}
					d := time.Since(windowStart).Nanoseconds()
					for {
						cur := lastDone.Load()
						if d <= cur || lastDone.CompareAndSwap(cur, d) {
							break
						}
					}
				}
			}
		}(cs[c], rand.New(rand.NewSource(seed*1_000_003+int64(c))))
	}

	res := &loadResult{served: map[int][]byte{}, lengths: map[int]float64{}}
	var ms0, ms1 runtime.MemStats
	time.Sleep(time.Until(windowStart))
	runtime.ReadMemStats(&ms0)
	if depth != nil {
		tick := time.NewTicker(5 * time.Millisecond)
		for now := range tick.C {
			if now.After(end) {
				break
			}
			res.depth = append(res.depth, float64(depth()))
		}
		tick.Stop()
	}
	wg.Wait()
	runtime.ReadMemStats(&ms1)
	res.allocated = ms1.TotalAlloc - ms0.TotalAlloc
	res.elapsed = float64(lastDone.Load()) / 1e9
	res.exhausted = exhausted.Load()

	for _, cl := range cs {
		cl.http.CloseIdleConnections()
		res.window.merge(cl.window)
		res.warm.merge(cl.warm)
		res.lat = append(res.lat, cl.lat...)
		res.errs = append(res.errs, cl.errs...)
		for p, b := range cl.served {
			if prev, ok := res.served[p]; ok && !bytes.Equal(prev, b) {
				res.mismatch++
				res.errs = append(res.errs, fmt.Sprintf("problem %d served two different schedules", p))
			}
			res.served[p] = b
		}
		for p, l := range cl.lengths {
			res.lengths[p] = l
		}
	}
	if len(res.errs) > 5 {
		res.errs = res.errs[:5]
	}
	if res.window.attempted == 0 || res.elapsed <= 0 {
		return nil, errors.New("no request completed inside the timed window")
	}
	return res, nil
}

// do sends request req and checks the reply. It returns the latency in
// ms and whether the request succeeded, and tallies it under the window
// or the warm-up.
func (cl *client) do(in *inputs, req int, timed bool) (float64, bool) {
	t0 := time.Now()
	status, reply, err := cl.post(in.requests[req].body)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	var verr error
	if err == nil && status == http.StatusOK {
		verr = cl.record(in, req, reply)
	}
	if timed {
		cl.window.count(status, err, verr)
	} else {
		cl.warm.count(status, err, verr)
	}
	failure := err
	if failure == nil && status != http.StatusOK {
		failure = fmt.Errorf("status %d", status)
	}
	if failure == nil {
		failure = verr
	}
	if failure != nil {
		if len(cl.errs) < 5 {
			cl.errs = append(cl.errs, fmt.Sprintf("request %d: %v", req, failure))
		}
		return ms, false
	}
	return ms, true
}

// post sends one body and decodes a 200 reply completely.
func (cl *client) post(body []byte) (int, *wire.ScheduleReply, error) {
	resp, err := cl.http.Post(cl.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, err := io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil, err
	}
	var reply wire.ScheduleReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return resp.StatusCode, nil, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, &reply, err
}

// record checks a 200 reply and keeps the schedule of tracked problems.
func (cl *client) record(in *inputs, req int, reply *wire.ScheduleReply) error {
	if err := checkReply(reply, in.expect(req)); err != nil {
		return err
	}
	p := in.requests[req].problem
	if p >= tracked {
		return nil
	}
	b, err := compactSchedule(reply)
	if err != nil {
		return err
	}
	if prev, ok := cl.served[p]; ok && !bytes.Equal(prev, b) {
		return fmt.Errorf("problem %d served two different schedules", p)
	}
	cl.served[p] = b
	cl.lengths[p] = reply.Length
	return nil
}
