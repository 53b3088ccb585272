package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"ftbar/internal/cluster"
	"ftbar/internal/service"
)

// stack is one running serving stack: the HTTP edge over a standalone
// service or over a master routing to two loopback-TCP workers.
type stack struct {
	url      string
	sched    service.Scheduler
	services []*service.Service // the services that schedule (one per worker)
	master   *cluster.Master    // nil for a standalone stack
	workers  []*cluster.Worker
	srv      *http.Server
	served   chan struct{} // closed when srv.Serve has returned
}

// clusterWorkers is the worker count of a cluster stack.
const clusterWorkers = 2

// startStack brings up a stack of the given kind and returns once its
// /healthz answers (and, for a cluster, every worker answers the
// master's stats RPC).
func startStack(kind string) (*stack, error) {
	st := &stack{}
	switch kind {
	case "standalone":
		svc := service.New(service.Config{})
		st.services = []*service.Service{svc}
		st.sched = svc
	case "cluster":
		m := cluster.NewMaster(cluster.MasterConfig{})
		st.master = m
		for i := 0; i < clusterWorkers; i++ {
			svc := service.New(service.Config{Workers: 1})
			st.services = append(st.services, svc)
			w := cluster.NewWorker(fmt.Sprintf("w%d", i), svc)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				st.close()
				return nil, err
			}
			w.Serve(ln)
			st.workers = append(st.workers, w)
			m.AddWorker(w.ID(), w.Addr())
		}
		m.Start()
		st.sched = m
	default:
		return nil, fmt.Errorf("unknown stack %q", kind)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/", service.NewHandler(st.sched))
	st.srv = &http.Server{Handler: mux}
	st.served = make(chan struct{})
	go func() {
		defer close(st.served)
		// Serve returns http.ErrServerClosed once close shuts it down.
		_ = st.srv.Serve(ln)
	}()
	st.url = "http://" + ln.Addr().String()
	if err := st.waitReady(); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// waitReady polls /healthz until it answers 200, then (cluster) until the
// aggregated stats show every worker answering.
func (st *stack) waitReady() error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(st.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return errors.New("stack: /healthz never answered")
		}
		time.Sleep(time.Millisecond)
	}
	if st.master == nil {
		return nil
	}
	for {
		s := st.master.Stats()
		if s.Workers == clusterWorkers && s.QueueCapacity == st.queueCapacity() {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("stack: cluster workers never came up")
		}
		time.Sleep(time.Millisecond)
	}
}

func (st *stack) queueCapacity() int {
	c := 0
	for _, svc := range st.services {
		c += svc.Stats().QueueCapacity
	}
	return c
}

// queueDepth sums the queued jobs of every scheduling service.
func (st *stack) queueDepth() int {
	d := 0
	for _, svc := range st.services {
		d += svc.Stats().QueueDepth
	}
	return d
}

// close stops the edge, the master, the workers and their services, in
// that order, and waits for each.
func (st *stack) close() {
	if st.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		// A shutdown that times out still closes the listener; the
		// wait below covers the serving goroutine either way.
		_ = st.srv.Shutdown(ctx)
		cancel()
		<-st.served
	}
	if st.master != nil {
		st.master.Close()
	}
	for _, w := range st.workers {
		w.Close()
	}
	for _, svc := range st.services {
		svc.Close()
	}
}

// setUp brings a stack up repeats times, tearing down all but the last,
// and returns the last with the median bring-up time in seconds.
func setUp(kind string, repeats int) (*stack, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		st, err := startStack(kind)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i+1 >= repeats {
			return st, median(times), nil
		}
		st.close()
	}
}
