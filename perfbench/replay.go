package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"ftbar/internal/cluster"
	"ftbar/internal/core"
	"ftbar/internal/model"
	"ftbar/internal/sched"
	"ftbar/internal/sim"
	"ftbar/internal/spec"
	"ftbar/internal/wire"
)

// layerLane replays requests one at a time through the layers' public
// functions, in the order the service (and, for a cluster, the master
// and the owning worker) calls them, with a span around each call.
type layerLane struct {
	rec     *recorder
	ring    *cluster.Ring // nil for a standalone stack
	workers map[string]*laneWorker

	requestBytes, replyBytes, scheduleBytes []float64
	sweeps, masked                          int
}

// laneWorker mirrors one scheduling service's reuse state: its cache
// (unbounded here; a replay sends far fewer than 1024 distinct
// requests) and its per-shape run arenas.
type laneWorker struct {
	cache  map[string]*wire.ScheduleResponse
	arenas map[string]*core.RunArena
}

// arenaRecords is the service's default records per shape arena.
const arenaRecords = 64

func newLayerLane(rec *recorder, kind string) *layerLane {
	l := &layerLane{rec: rec, workers: map[string]*laneWorker{}}
	ids := []string{"w0"}
	if kind == "cluster" {
		l.ring = cluster.NewRing(0)
		ids = ids[:0]
		for i := 0; i < clusterWorkers; i++ {
			ids = append(ids, fmt.Sprintf("w%d", i))
		}
	}
	for _, id := range ids {
		if l.ring != nil {
			l.ring.Add(id)
		}
		l.workers[id] = &laneWorker{cache: map[string]*wire.ScheduleResponse{}, arenas: map[string]*core.RunArena{}}
	}
	return l
}

// serve replays one request and returns its schedule bytes.
func (l *layerLane) serve(id int, body []byte) ([]byte, error) {
	r := l.rec
	root := r.begin("request", id)
	resp, miss, err := l.layers(id, body)
	r.end(root)
	if err != nil {
		return nil, err
	}
	l.requestBytes = append(l.requestBytes, float64(len(body)))
	if miss != nil {
		if err := l.probe(id, miss); err != nil {
			return nil, err
		}
	}
	return resp.Schedule, nil
}

// layers is the request path proper: edge decode, content key, the
// cluster's job and reply codec, the scheduling layers on a cache miss,
// and the edge's reply encode. It returns the miss's problem for the
// probes, or nil on a hit.
func (l *layerLane) layers(id int, body []byte) (*wire.ScheduleResponse, *spec.Problem, error) {
	r := l.rec
	var req wire.ScheduleRequest
	if err := r.call("wire.request_decode", id, func() error { return json.Unmarshal(body, &req) }); err != nil {
		return nil, nil, err
	}
	key, err := l.cacheKey(id, &req)
	if err != nil {
		return nil, nil, err
	}
	w := l.workers["w0"]
	if l.ring != nil {
		w = l.workers[l.ring.Owner(key)]
		var job []byte
		if err := r.call("wire.job_encode", id, func() (err error) { job, err = json.Marshal(&req); return }); err != nil {
			return nil, nil, err
		}
		req = wire.ScheduleRequest{}
		if err := r.call("wire.job_decode", id, func() error { return json.Unmarshal(job, &req) }); err != nil {
			return nil, nil, err
		}
		if key, err = l.cacheKey(id, &req); err != nil {
			return nil, nil, err
		}
	}
	resp, hit := w.cache[key]
	var miss *spec.Problem
	if !hit {
		if resp, err = l.compute(id, w, &req); err != nil {
			return nil, nil, err
		}
		w.cache[key] = resp
		miss = req.Problem
	}
	if l.ring != nil {
		var data []byte
		if err := r.call("wire.worker_reply_encode", id, func() (err error) { data, err = json.Marshal(resp); return }); err != nil {
			return nil, nil, err
		}
		resp = new(wire.ScheduleResponse)
		if err := r.call("wire.worker_reply_decode", id, func() error { return json.Unmarshal(data, resp) }); err != nil {
			return nil, nil, err
		}
	}
	var out []byte
	err = r.call("wire.reply_encode", id, func() (err error) {
		out, err = encodeReply(&wire.ScheduleReply{ScheduleResponse: resp, Cached: hit})
		return
	})
	l.replyBytes = append(l.replyBytes, float64(len(out)))
	return resp, miss, err
}

func (l *layerLane) cacheKey(id int, req *wire.ScheduleRequest) (string, error) {
	var key string
	err := l.rec.call("wire.cache_key", id, func() (err error) { key, err = req.CacheKey(); return })
	return key, err
}

// compute mirrors the service's scheduler job: validate, run through
// the shape's arena, marshal, then the requested artefacts.
func (l *layerLane) compute(id int, w *laneWorker, req *wire.ScheduleRequest) (*wire.ScheduleResponse, error) {
	r := l.rec
	opts, err := req.Options.CoreOptions()
	if err != nil {
		return nil, err
	}
	p := req.Problem
	if err := r.call("spec.validate", id, p.Validate); err != nil {
		return nil, err
	}
	shape := fmt.Sprintf("%d/%d/%d", p.Alg.NumOps(), p.Arc.NumProcs(), p.Arc.NumMedia())
	arena := w.arenas[shape]
	if arena == nil {
		arena = core.NewRunArena(arenaRecords)
		w.arenas[shape] = arena
	}
	var res *core.Result
	if err := r.call("core.arena_run", id, func() (err error) { res, err = arena.Run(p, opts); return }); err != nil {
		return nil, err
	}
	var data []byte
	if err := r.call("sched.marshal", id, func() (err error) { data, err = res.Schedule.MarshalJSON(); return }); err != nil {
		return nil, err
	}
	l.scheduleBytes = append(l.scheduleBytes, float64(len(data)))
	resp := &wire.ScheduleResponse{
		Length: res.Schedule.Length(), MeetsRtc: res.MeetsRtc, RtcViolation: res.RtcViolation,
		Steps: len(res.Steps), ExtraReplicas: res.ExtraReplicas, Schedule: data,
	}
	if req.Include.Gantt {
		var b strings.Builder
		if err := r.call("sched.render", id, func() error {
			return res.Schedule.Render(&b, sched.GanttOptions{Bars: true})
		}); err != nil {
			return nil, err
		}
		resp.Gantt = b.String()
	}
	if req.Include.Stats {
		st := res.Schedule.Stats()
		resp.Stats = &st
	}
	if req.Include.Sweep {
		if err := r.call("sim.crash_sweep", id, func() (err error) {
			resp.Sweep, err = sim.SingleFailureSweep(res.Schedule)
			return
		}); err != nil {
			return nil, err
		}
		for _, rep := range resp.Sweep {
			l.sweeps++
			if rep.Masked {
				l.masked++
			}
		}
	}
	arena.Recycle(res.Schedule)
	return resp, nil
}

// probe times, outside the request path, the layers a miss pays for
// inside other calls or that the service never runs per request: one
// route table per edge, a cold core.Run and output validation.
func (l *layerLane) probe(id int, p *spec.Problem) error {
	r := l.rec
	if err := r.call("arch.edge_routes", id, func() error {
		for e := 0; e < p.Alg.NumEdges(); e++ {
			if _, err := p.EdgeRoutes(model.EdgeID(e)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var res *core.Result
	if err := r.call("core.solve", id, func() (err error) { res, err = core.Run(p, core.Options{}); return }); err != nil {
		return err
	}
	return r.call("sched.validate", id, res.Schedule.Validate)
}

// encodeReply encodes a reply the way the HTTP edge writes it.
func encodeReply(reply *wire.ScheduleReply) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	err := enc.Encode(reply)
	return b.Bytes(), err
}

// inprocLane sends requests through the serving scheduler's in-process
// TrySchedule, with the edge's decode and encode around it, untraced
// except for one span around the TrySchedule call itself.
type inprocLane struct {
	rec   *recorder
	sched interface {
		TrySchedule(context.Context, *wire.ScheduleRequest) (*wire.ScheduleReply, error)
	}
	name string
}

// serve returns the schedule bytes and the request's duration.
func (u *inprocLane) serve(id int, body []byte) ([]byte, time.Duration, error) {
	t0 := time.Now()
	var req wire.ScheduleRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, 0, err
	}
	var reply *wire.ScheduleReply
	err := u.rec.call(u.name, id, func() (err error) {
		reply, err = u.sched.TrySchedule(context.Background(), &req)
		return
	})
	if err != nil {
		return nil, 0, err
	}
	if _, err := encodeReply(reply); err != nil {
		return nil, 0, err
	}
	return reply.Schedule, time.Since(t0), nil
}
