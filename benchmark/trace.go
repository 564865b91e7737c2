package main

import (
	"encoding/json"
	"os"
	"time"

	"gfd"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public call (spans inside the program are a later change). Spans of one
// op share its op id; Parent is the index of the enclosing span, -1 for the
// op's root.
type span struct {
	Name   string
	Op     int
	Parent int
	Start  time.Duration // since tracer.t0
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil tracer, or one
// switched off, makes begin/end no-ops, so measured runs execute the very
// same op code with tracing off. Ops run on one goroutine (one closed-loop
// client), so a plain stack tracks the enclosing span.
type tracer struct {
	t0    time.Time
	on    bool
	op    int
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) int {
	if t == nil || !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: time.Since(t.t0)})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
}

// phase records a child of parent from a duration the program itself
// reported (Result.EstimateWall, Result.DetectWall), laid end to end from
// offset after the parent's start. It returns the offset after the phase.
func (t *tracer) phase(parent int, name string, offset, d time.Duration) time.Duration {
	if parent < 0 || d <= 0 {
		return offset
	}
	p := t.spans[parent]
	start := min(p.Start+offset, p.End)
	t.spans = append(t.spans, span{Name: name, Op: p.Op, Parent: parent, Start: start, End: min(start+d, p.End)})
	return offset + d
}

// phases records the engine's self-reported estimation and detection walls
// as children of the span that ran it.
func (tr *tracer) phases(parent int, res *gfd.Result) {
	if tr == nil || parent < 0 {
		return
	}
	off := tr.phase(parent, "validate.estimate", 0, res.EstimateWall)
	tr.phase(parent, "validate.detect", off, res.DetectWall)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its child spans cover (children of one
// parent never overlap here: the client is sequential).
func (t *tracer) selfTimes() map[string]time.Duration {
	covered := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range t.spans {
		self[s.Name] += s.End - s.Start - covered[i]
	}
	return self
}

// writeChrome writes the spans as Chrome trace events (chrome://tracing,
// Perfetto), one complete event per span, with the fingerprint as metadata.
func (t *tracer) writeChrome(path string, fp fingerprint) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"` // µs
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{"op": s.Op, "span": i, "parent": s.Parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "fingerprint": fp})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
