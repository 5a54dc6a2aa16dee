package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hbat/internal/runspan"
)

// The traced run records one span per call the benchmark makes into a
// layer's public functions, on the same runspan.Tracer the engine,
// the hbatd transport and the hbatc coordinator are given through their
// existing setters. Every benchmark root span is bound to a fresh W3C
// trace identity that travels in the context (engine) or the job's
// traceparent (fabric), so the program's own root spans name the
// benchmark span they run under. Spans of one spec or job therefore
// share one trace id, and selfTimes can reassemble a single tree.

// rootSpan opens a benchmark root span bound to a fresh cross-process
// trace identity, and returns the context that carries it. With tracing
// off it returns a nil span and ctx unchanged.
func rootSpan(ctx context.Context, tr *runspan.Tracer, name string) (*runspan.Span, context.Context, runspan.TraceContext) {
	if !tr.Enabled() {
		return nil, ctx, runspan.TraceContext{}
	}
	tc := runspan.NewTraceContext()
	sp := tr.Start(tr.NewTraceWith(tc.TraceID, tc.SpanID, ""), nil, name)
	return sp, runspan.ContextWithTrace(ctx, tc), tc
}

// child opens a span under parent (a no-op when parent is nil).
func child(tr *runspan.Tracer, parent *runspan.Span, name string) *runspan.Span {
	if parent == nil {
		return nil
	}
	return tr.Start(parent.Trace(), parent, name)
}

// layerOf maps a span name to the layer that does the work inside it.
// Benchmark spans are named "<layer>.<call>"; the program's own spans
// carry bare names. "" means: the layer of the parent span.
func layerOf(name string) string {
	if rest, ok := strings.CutPrefix(name, "bench."); ok {
		// A benchmark root: "bench.<layer>.<call>" is a call into that
		// layer, "bench.<what>" is the benchmark's own glue.
		if i := strings.IndexByte(rest, '.'); i > 0 {
			return rest[:i]
		}
		return "bench"
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	switch name {
	case "run", "memo_wait", "journal_append":
		return "engine"
	case "program_build":
		return "workload"
	case "checkpoint", "fast_forward", "ckpt_load", "ckpt_build":
		// ckpt.Build drives the functional emulator, so emulation
		// time is inside these spans.
		return "ckpt"
	case "simulate":
		return "cpu"
	case "job", "queue_wait", "store_hit":
		return "transport"
	case "fleet_job", "dispatch", "retry", "fetch_result":
		return "fleet"
	}
	return ""
}

// waitSpans only wait for work another span does; their time is not
// self time of any layer. The client's wait is reported as api.wait_ms.
var waitSpans = map[string]bool{"api.wait": true, "singleflight_wait": true, "memo_wait": true}

// selfTimes sums, per layer, the self time of every span reachable
// from a benchmark root ("bench.*"): a span's duration minus the part
// of its interval that its child spans cover. Program root spans are
// attached under the benchmark span their W3C remote parent names.
// Spans unreachable from a benchmark root (the engine's own per-sweep
// scheduling trace) are left out.
func selfTimes(spans []runspan.SpanData) map[string]float64 {
	byW3C := make(map[string]uint64)
	for _, d := range spans {
		if d.SpanW3C != "" {
			byW3C[d.SpanW3C] = d.Span
		}
	}
	children := make(map[uint64][]int)
	var roots []int
	for i, d := range spans {
		switch {
		case d.Parent != 0:
			children[d.Parent] = append(children[d.Parent], i)
		case d.RemoteParent != "":
			if p, ok := byW3C[d.RemoteParent]; ok {
				children[p] = append(children[p], i)
			}
		case strings.HasPrefix(d.Name, "bench."):
			roots = append(roots, i)
		}
	}
	// A worker's job root names the coordinator job as its remote
	// parent, and the coordinator parents its artifact fetch on the job
	// too, but both run inside one of the job's dispatch spans: nest
	// them there, so dispatch self time is the coordinator's own share
	// of the round trip rather than the worker's work or the fetch.
	for p, cs := range children {
		var dispatches []int
		for _, c := range cs {
			if spans[c].Name == "dispatch" {
				dispatches = append(dispatches, c)
			}
		}
		if len(dispatches) == 0 {
			continue
		}
		kept := cs[:0]
		for _, c := range cs {
			moved := false
			if spans[c].Name == "job" || spans[c].Name == "fetch_result" {
				for _, dc := range dispatches {
					ds := spans[dc]
					if spans[c].StartUS >= ds.StartUS && spans[c].StartUS <= ds.StartUS+ds.DurUS {
						children[ds.Span] = append(children[ds.Span], c)
						moved = true
						break
					}
				}
			}
			if !moved {
				kept = append(kept, c)
			}
		}
		children[p] = kept
	}
	out := make(map[string]float64)
	var walk func(i int, parentLayer string)
	walk = func(i int, parentLayer string) {
		d := spans[i]
		layer := layerOf(d.Name)
		if layer == "" {
			layer = parentLayer
		}
		start, end := d.StartUS, d.StartUS+d.DurUS
		var iv [][2]int64
		for _, c := range children[d.Span] {
			cs, ce := spans[c].StartUS, spans[c].StartUS+spans[c].DurUS
			if cs < start {
				cs = start
			}
			if ce > end {
				ce = end
			}
			if ce > cs {
				iv = append(iv, [2]int64{cs, ce})
			}
			walk(c, layer)
		}
		if !waitSpans[d.Name] {
			out[layer] += float64(d.DurUS-covered(iv)) / 1e3
		}
	}
	for _, r := range roots {
		walk(r, "bench")
	}
	return out
}

// covered returns the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curS, curE, open = x[0], x[1], true
		case x[0] <= curE:
			if x[1] > curE {
				curE = x[1]
			}
		default:
			total += curE - curS
			curS, curE = x[0], x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeSpans writes every recorded span as JSON lines under dir.
func writeSpans(dir, name string, spans []runspan.SpanData) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	for _, d := range spans {
		if err := enc.Encode(d); err != nil {
			f.Close()
			return "", fmt.Errorf("write spans: %w", err)
		}
	}
	return path, f.Close()
}
