package main

import (
	"strings"
	"time"

	"jobgraph/internal/obs"
	"jobgraph/internal/obs/traceexport"
)

// tracer records the traced run in a private registry: a workload span,
// one span per op under it, and one span per layer call under the op.
// The spans come from the benchmark's own calls into each layer's public
// functions; nothing inside the program is instrumented for it.
type tracer struct {
	reg  *obs.Registry
	root *obs.Span
}

// traceEvents bounds the retained spans; the largest traced run (the
// mixed serve replay) records about 16k.
const traceEvents = 1 << 16

func newTracer(workload string) *tracer {
	reg := obs.NewRegistry()
	// Reading MemStats stops the world; per-call spans of a few
	// microseconds must not pay for it.
	reg.SetTrackAllocs(false)
	reg.SetEventCapacity(traceEvents)
	return &tracer{reg: reg, root: reg.StartSpan(workload)}
}

// op starts one op span under the workload span.
func (t *tracer) op() *obs.Span { return t.root.Child("op") }

// layer runs fn as one call of the named layer, spanned under op.
func (t *tracer) layer(op *obs.Span, name string, fn func() error) error {
	sp := op.Child(name)
	err := fn()
	sp.End()
	return err
}

// end closes the workload span.
func (t *tracer) end() { t.root.End() }

// calls returns the durations of every call of the named layer.
func (t *tracer) calls(layer string) []time.Duration {
	var out []time.Duration
	suffix := "/op/" + layer
	for _, ev := range t.reg.Events() {
		if strings.HasSuffix(ev.Path, suffix) {
			out = append(out, ev.Dur)
		}
	}
	return out
}

// perOp returns, for each op span, its own duration and the summed
// duration of the named layer's calls inside it ("" sums every layer).
func (t *tracer) perOp(layer string) (ops, layers []time.Duration) {
	evs := t.reg.Events() // sorted by start, enclosing spans first
	for i, op := range evs {
		if !strings.HasSuffix(op.Path, "/op") {
			continue
		}
		end := op.Start.Add(op.Dur)
		var sum time.Duration
		for _, ev := range evs[i+1:] {
			if ev.Start.After(end) {
				break
			}
			match := strings.Contains(ev.Path, "/op/")
			if layer != "" {
				match = strings.HasSuffix(ev.Path, "/op/"+layer)
			}
			if match {
				sum += ev.Dur
			}
		}
		ops = append(ops, op.Dur)
		layers = append(layers, sum)
	}
	return ops, layers
}

// export writes the spans as a Perfetto (Chrome trace_event) file.
func (t *tracer) export(path string, h host) error {
	return traceexport.WriteFile(path, t.reg.Events(), traceexport.Meta{
		Process: "jobgraph-bench",
		Labels:  h.labels(),
	})
}
