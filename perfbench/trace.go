package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Request; Parent is -1 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Lane    string `json:"lane"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory for one sequential lane; begin and end
// nest like calls. A nil recorder records nothing.
type recorder struct {
	origin time.Time
	lane   string
	spans  *[]span // shared by every lane of one traced run
	open   []int
}

func (r *recorder) begin(name string, req int) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(*r.spans)
	*r.spans = append(*r.spans, span{ID: id, Parent: parent, Request: req, Lane: r.lane, Name: name,
		Start: time.Since(r.origin).Nanoseconds()})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	(*r.spans)[id].End = time.Since(r.origin).Nanoseconds()
	r.open = r.open[:len(r.open)-1]
}

// call runs fn inside a span.
func (r *recorder) call(name string, req int, fn func() error) error {
	id := r.begin(name, req)
	err := fn()
	r.end(id)
	return err
}

// selfTimes returns each span's duration minus the part of it that its
// children cover, indexed by span ID. Overlapping children count once.
func selfTimes(spans []span) []int64 {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[i])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// perRequestMs totals each span name's duration per request of one lane
// and returns, per name, the per-request totals in ms.
func perRequestMs(spans []span, lane string) map[string][]float64 {
	totals := map[string]map[int]int64{}
	for _, s := range spans {
		if s.Lane != lane {
			continue
		}
		if totals[s.Name] == nil {
			totals[s.Name] = map[int]int64{}
		}
		totals[s.Name][s.Request] += s.dur()
	}
	out := map[string][]float64{}
	for name, byReq := range totals {
		for _, ns := range byReq {
			out[name] = append(out[name], float64(ns)/1e6)
		}
	}
	return out
}

// writeSpans writes the run's spans and their self times as JSON.
func writeSpans(path string, meta map[string]any, spans []span) error {
	self := selfTimes(spans)
	type out struct {
		span
		SelfNs int64 `json:"self_ns"`
	}
	rows := make([]out, len(spans))
	for i, s := range spans {
		rows[i] = out{s, self[i]}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"meta": meta, "spans": rows}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
