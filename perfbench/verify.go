package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"ftbar/internal/core"
	"ftbar/internal/sched"
	"ftbar/internal/wire"
)

// expectation is what a correct reply to one request must satisfy.
type expectation struct {
	tasks, npf, procs int
	include           wire.Include
}

func (in *inputs) expect(req int) expectation {
	r := in.requests[req]
	p := in.problems[r.problem]
	return expectation{tasks: p.tasks, npf: p.npf, procs: p.procs, include: r.include}
}

// checkReply checks a decoded 200 reply: a well-formed schedule document
// whose length is the reply's, one step per task, at least Npf+1
// replicas per task, and exactly the requested optional artefacts.
func checkReply(reply *wire.ScheduleReply, want expectation) error {
	if reply.ScheduleResponse == nil {
		return errors.New("reply carries no response")
	}
	if reply.Steps != want.tasks {
		return fmt.Errorf("steps %d, want %d tasks", reply.Steps, want.tasks)
	}
	var doc sched.Doc
	if err := json.Unmarshal(reply.Schedule, &doc); err != nil {
		return fmt.Errorf("schedule document: %w", err)
	}
	if doc.Length != reply.Length || !(doc.Length > 0) {
		return fmt.Errorf("document length %v, reply length %v", doc.Length, reply.Length)
	}
	if doc.Npf != want.npf {
		return fmt.Errorf("document npf %d, want %d", doc.Npf, want.npf)
	}
	replicas := map[string]int{}
	for _, r := range doc.Replicas {
		replicas[r.Task]++
	}
	if len(replicas) != want.tasks {
		return fmt.Errorf("document places %d tasks, want %d", len(replicas), want.tasks)
	}
	for task, n := range replicas {
		if n < want.npf+1 {
			return fmt.Errorf("task %s has %d replicas, want >= %d", task, n, want.npf+1)
		}
	}
	if (reply.Gantt != "") != want.include.Gantt {
		return fmt.Errorf("gantt present %t, requested %t", reply.Gantt != "", want.include.Gantt)
	}
	if (reply.Stats != nil) != want.include.Stats {
		return fmt.Errorf("stats present %t, requested %t", reply.Stats != nil, want.include.Stats)
	}
	if want.include.Sweep && len(reply.Sweep) != want.procs || !want.include.Sweep && reply.Sweep != nil {
		return fmt.Errorf("sweep has %d reports, requested %t for %d processors",
			len(reply.Sweep), want.include.Sweep, want.procs)
	}
	return nil
}

// compactSchedule returns the reply's schedule document without the
// indentation the HTTP edge adds, the form MarshalJSON produces.
func compactSchedule(reply *wire.ScheduleReply) ([]byte, error) {
	var b bytes.Buffer
	if err := json.Compact(&b, reply.Schedule); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// verifyReference decodes a request body, solves it with the reference
// engine, validates the schedule and requires the served schedule bytes
// to equal the reference's.
func verifyReference(body, served []byte) error {
	var req wire.ScheduleRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	res, err := core.Run(req.Problem, core.Options{Engine: core.EngineReference})
	if err != nil {
		return fmt.Errorf("reference solve: %w", err)
	}
	if err := res.Schedule.Validate(); err != nil {
		return fmt.Errorf("reference schedule: %w", err)
	}
	ref, err := res.Schedule.MarshalJSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(ref, served) {
		return fmt.Errorf("served schedule (%d bytes) differs from the reference (%d bytes)", len(served), len(ref))
	}
	return nil
}
