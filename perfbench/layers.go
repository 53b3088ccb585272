package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"ftbar/internal/obsv"
	"ftbar/internal/service"
	"ftbar/internal/wire"
)

// replayChunk is how many requests one lane replays before the other
// lane replays the same ones, so both lanes see the same load drift.
const replayChunk = 4

// perLayer reports the per-layer metrics: the serving stack's own
// counters after the load phase, a traced replay of the sequence, and
// a cluster hit probe. It returns false when the replay's schedules
// disagree with the in-process service's.
func (b *bench) perLayer(in *inputs, lr *loadResult, st *stack, stats service.Stats) (bool, error) {
	b.put("service.hit_rate", "ratio", stats.HitRate)
	b.put("service.scheduler_runs", "count", float64(stats.SchedulerRuns))
	b.put("service.rejected", "count", float64(stats.Rejected))
	b.put("service.errors", "count", float64(stats.Errors))
	b.put("service.latency_p50_ms", "ms", stats.LatencyP50Ms)
	h := st.sched.Metrics().LookupHistogram(obsv.Label("ftbar_http_request_duration_seconds", "path", "/v1/schedule"))
	b.put("service.http_handler_p50_ms", "ms", h.Quantile(0.5)*1e3)
	b.put("service.queue_depth_mean", "count", mean(lr.depth))

	planner := func(name string) float64 {
		var v float64
		for _, svc := range st.services {
			v += counter(svc.Metrics(), "ftbar_planner_"+name+"_total")
		}
		return v
	}
	runs := float64(max(stats.SchedulerRuns, 1))
	for _, c := range []string{"rounds", "previews_computed", "previews_screened", "sigma_reuses",
		"batched_commits", "batch_fallbacks", "warm_starts", "replayed_decisions", "replay_fallbacks"} {
		b.put("core."+c, "count/run", planner(c)/runs)
	}
	computed, screened := planner("previews_computed"), planner("previews_screened")
	b.put("core.screen_ratio", "ratio", ratio(screened, screened+computed))
	b.put("core.replay_ratio", "ratio", ratio(planner("replayed_decisions"), runs*float64(in.problems[0].tasks)))

	ok, err := b.replay(in)
	if err != nil {
		return false, err
	}

	// The cluster workload probes the master that served its load; the
	// standalone ones probe a two-worker cluster of their own.
	probe := st
	if st.master == nil {
		if probe, err = startStack("cluster"); err != nil {
			return false, err
		}
		defer probe.close()
	}
	if err := b.clusterProbe(in, probe); err != nil {
		return false, err
	}
	for _, c := range []string{"coalesced", "reroutes", "route_errors"} {
		b.put("cluster."+c, "count", counter(probe.master.Metrics(), "ftbar_cluster_"+c+"_total"))
	}
	return ok, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replay runs the traced layer lane and the untraced in-process lane
// over the same requests, alternating chunks, for the replay half of
// the run, and reports the layer metrics, coverage and overhead.
func (b *bench) replay(in *inputs) (bool, error) {
	fresh, err := startStack(b.w.Stack)
	if err != nil {
		return false, err
	}
	defer fresh.close()
	var spans []span
	origin := time.Now()
	layers := newLayerLane(&recorder{origin: origin, lane: "layers", spans: &spans}, b.w.Stack)
	name := "service.try_schedule"
	if fresh.master != nil {
		name = "master.try_schedule"
	}
	inproc := &inprocLane{rec: &recorder{origin: origin, lane: "inproc", spans: &spans}, sched: fresh.sched, name: name}

	var untraced time.Duration
	mismatches, replayed := 0, 0
	deadline := time.Now().Add(toDuration(b.seconds / 2))
	got := make([][]byte, replayChunk)
	for k := 0; k < len(in.seq) && time.Now().Before(deadline); k += replayChunk {
		chunk := in.seq[k:min(k+replayChunk, len(in.seq))]
		for j, req := range chunk {
			if got[j], err = layers.serve(k+j, in.requests[req].body); err != nil {
				return false, fmt.Errorf("layer replay of request %d: %w", k+j, err)
			}
		}
		for j, req := range chunk {
			want, d, err := inproc.serve(k+j, in.requests[req].body)
			if err != nil {
				return false, fmt.Errorf("in-process request %d: %w", k+j, err)
			}
			untraced += d
			if !bytes.Equal(got[j], want) {
				mismatches++
			}
		}
		replayed += len(chunk)
	}
	if mismatches > 0 {
		fmt.Fprintf(b.log, "perfbench: %d of %d replayed schedules differ from the in-process service's\n", mismatches, replayed)
	}

	self := selfTimes(spans)
	var traced, explained int64
	for i, s := range spans {
		if s.Lane == "layers" && s.Name == "request" {
			traced += s.dur()
			explained += s.dur() - self[i]
		}
	}
	per := perRequestMs(spans, "layers")
	for _, name := range []string{"wire.request_decode", "wire.cache_key", "wire.reply_encode",
		"spec.validate", "arch.edge_routes", "core.solve", "core.arena_run",
		"sched.validate", "sched.marshal", "sched.render", "sim.crash_sweep"} {
		b.put(name+"_ms", "ms", median(per[name]))
	}
	b.put("wire.request_bytes", "bytes", median(layers.requestBytes))
	b.put("wire.reply_bytes", "bytes", median(layers.replyBytes))
	b.put("sched.schedule_bytes", "bytes", median(layers.scheduleBytes))
	b.put("sim.masked_ratio", "ratio", ratio(float64(layers.masked), float64(layers.sweeps)))
	b.put("trace.coverage", "ratio", ratio(float64(explained), float64(untraced.Nanoseconds())))
	b.put("trace.overhead_ratio", "ratio", ratio(float64(untraced.Nanoseconds()), float64(traced)))
	b.note("trace.replayed_requests", "count", float64(replayed))

	meta := map[string]any{"workload": b.w.Name, "seed": b.seed, "seconds": b.seconds,
		"replayed": replayed, "untraced_ns": untraced.Nanoseconds()}
	if err := writeSpans(b.spanFile, meta, spans); err != nil {
		return false, err
	}
	return mismatches == 0, nil
}

// clusterProbe times the same cache hit through Master.TrySchedule and
// through the owning worker's Service.TrySchedule.
func (b *bench) clusterProbe(in *inputs, c *stack) error {
	const n, reps = 16, 5
	reqs := make([]*wire.ScheduleRequest, 0, n)
	owners := make([]*service.Service, 0, n)
	ctx := context.Background()
	for _, r := range in.requests[:min(n, len(in.requests))] {
		req := new(wire.ScheduleRequest)
		if err := json.Unmarshal(r.body, req); err != nil {
			return err
		}
		if _, err := c.master.TrySchedule(ctx, req); err != nil {
			return fmt.Errorf("cluster probe: %w", err)
		}
		key, err := req.CacheKey()
		if err != nil {
			return err
		}
		owner := c.master.Registry().Ring().Owner(key)
		for i, w := range c.workers {
			if w.ID() == owner {
				owners = append(owners, c.services[i])
			}
		}
		reqs = append(reqs, req)
	}
	if len(owners) != len(reqs) {
		return fmt.Errorf("cluster probe: %d requests have no owning worker", len(reqs)-len(owners))
	}
	var master, worker []float64
	timed := func(fn func() (*wire.ScheduleReply, error)) (float64, error) {
		t0 := time.Now()
		reply, err := fn()
		if err == nil && !reply.Cached {
			err = fmt.Errorf("cluster probe: a repeated request was not a cache hit")
		}
		return float64(time.Since(t0).Nanoseconds()) / 1e6, err
	}
	for rep := 0; rep < reps; rep++ {
		for i, req := range reqs {
			ms, err := timed(func() (*wire.ScheduleReply, error) { return c.master.TrySchedule(ctx, req) })
			if err != nil {
				return err
			}
			master = append(master, ms)
			if ms, err = timed(func() (*wire.ScheduleReply, error) { return owners[i].TrySchedule(ctx, req) }); err != nil {
				return err
			}
			worker = append(worker, ms)
		}
	}
	b.put("cluster.master_schedule_ms", "ms", median(master))
	b.put("cluster.worker_schedule_ms", "ms", median(worker))
	b.put("cluster.overhead_ms", "ms", median(master)-median(worker))
	return nil
}
