package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"hbat/api"
	"hbat/internal/engine"
	"hbat/internal/harness"
	"hbat/internal/runspan"
	"hbat/internal/tlb"
	"hbat/internal/workload"
)

// pass is one timed unit of work: a cold five-artifact sweep, one
// sampled pass, or one round of fabric jobs.
type pass struct {
	wall      time.Duration
	jobs      int
	latMs     []float64
	attempted int
	failed    int
	// counts are layer counters read after the pass.
	counts map[string]float64
	// retained keeps the pass's engine reachable until the heap is
	// read, so the reading includes everything the pass retained.
	retained any
}

// progressLatency collects every executed (not memo-served) spec's
// wall time. RunAll delivers Progress under its own lock.
func progressLatency(lat *[]float64) func(engine.Progress) {
	return func(p engine.Progress) {
		if p.Result != nil && !p.Result.Cached && p.Result.Err == nil {
			*lat = append(*lat, float64(p.Result.Wall.Microseconds())/1e3)
		}
	}
}

// engineCounts reads the layer counters one engine accumulated.
func engineCounts(e *engine.Engine) map[string]float64 {
	cs := e.CacheStats()
	return map[string]float64{
		"workload.builds":    float64(cs.BuildMisses),
		"ckpt.builds":        float64(cs.CkptMisses),
		"ckpt.hits":          float64(cs.CkptHits),
		"engine.spec_misses": float64(cs.SpecMisses),
	}
}

var figures = map[string]func(context.Context, harness.Options) (*harness.FigureResult, error){
	"fig5": harness.Figure5, "fig7": harness.Figure7,
	"fig8": harness.Figure8, "fig9": harness.Figure9,
}

// renderArtifact produces one of the five report artifacts through the
// harness, exactly as the report tools render it.
func renderArtifact(ctx context.Context, name string, opts harness.Options) ([]byte, error) {
	var buf bytes.Buffer
	switch name {
	case "table3":
		rows, err := harness.Table3(ctx, opts)
		if err != nil {
			return nil, err
		}
		harness.RenderTable3(&buf, rows)
	default:
		fig := figures[name]
		if fig == nil {
			return nil, fmt.Errorf("unknown artifact %q", name)
		}
		f, err := fig(ctx, opts)
		if err != nil {
			return nil, err
		}
		harness.RenderFigure(&buf, f)
	}
	return buf.Bytes(), nil
}

// sweepColdPass regenerates the five artifacts at test scale on a fresh
// engine (caches on) and checks each against its recorded digest.
func sweepColdPass(ctx context.Context, tr *runspan.Tracer, dg *digests) pass {
	e := engine.New()
	e.SetSpans(tr)
	var p pass
	opts := harness.Options{Scale: workload.ScaleTest, Engine: e, Progress: progressLatency(&p.latMs)}
	start := time.Now()
	for _, name := range sweepArtifacts {
		sp, actx, _ := rootSpan(ctx, tr, "bench.harness."+name)
		data, err := renderArtifact(actx, name, opts)
		sp.End()
		p.attempted++
		if err != nil {
			logf("sweep-cold: %s: %v", name, err)
			p.failed++
			continue
		}
		if err := dg.checkSweep(name, data); err != nil {
			logf("sweep-cold: %v", err)
			p.failed++
		}
	}
	p.wall = time.Since(start)
	p.jobs = len(p.latMs)
	p.counts = engineCounts(e)
	p.retained = e
	return p
}

// sampledPass runs one sampled-ffwd pass on a fresh engine and checks
// every result's artifact against its recorded digest.
func sampledPass(ctx context.Context, specs []engine.RunSpec, tr *runspan.Tracer, dg *digests) pass {
	e := engine.New()
	e.SetSpans(tr)
	var p pass
	start := time.Now()
	sp, actx, _ := rootSpan(ctx, tr, "bench.engine.RunAll")
	results, err := e.RunAll(actx, specs, 0, progressLatency(&p.latMs))
	sp.End()
	if err != nil {
		logf("sampled-ffwd: %v", err)
	}
	for _, r := range results {
		p.attempted++
		if r.Err != nil {
			logf("sampled-ffwd: %v", r.Err)
			p.failed++
			continue
		}
		if err := dg.checkSampled(r.Spec, engine.Artifact(engine.Wire(r))); err != nil {
			logf("sampled-ffwd: %v", err)
			p.failed++
		}
	}
	p.wall = time.Since(start)
	p.jobs = len(p.latMs)
	p.counts = engineCounts(e)
	p.retained = e
	return p
}

// sweepRequests lists the spec requests of the five artifacts in wire
// form: table3's T4 column and the four design × workload grids.
func sweepRequests() []api.SimOptions {
	var out []api.SimOptions
	base := api.SimOptions{CommonOptions: api.CommonOptions{Scale: "test", Seed: 1}, PageSize: 4096}
	for _, w := range workload.Names() {
		o := base
		o.Workload, o.Design = w, "T4"
		out = append(out, o)
	}
	variants := []func(*api.SimOptions){
		func(*api.SimOptions) {},
		func(o *api.SimOptions) { o.InOrder = true },
		func(o *api.SimOptions) { o.PageSize = 8192 },
		func(o *api.SimOptions) { o.FewRegisters = true },
	}
	for _, v := range variants {
		for _, d := range tlb.DesignOrder {
			for _, w := range workload.Names() {
				o := base
				o.Workload, o.Design = w, d
				v(&o)
				out = append(out, o)
			}
		}
	}
	return out
}

// normalize validates generated wire specs the way every request is
// validated, and counts distinct keys.
func normalize(wire []api.SimOptions) (distinct int, err error) {
	keys := make(map[string]bool, len(wire))
	for _, o := range wire {
		s, err := engine.SpecFromWire(o)
		if err != nil {
			return 0, err
		}
		keys[s.Hash()] = true
	}
	return len(keys), nil
}

func setupSweepCold(ctx context.Context, _ int64, _ *runspan.Tracer, dg *digests) (*instance, error) {
	reqs := sweepRequests()
	distinct, err := normalize(reqs)
	if err != nil {
		return nil, err
	}
	var counts map[string]float64
	return &instance{
		// Keep only the digests this workload checks, after set-up is
		// timed.
		warm: func(context.Context) error { dg = dg.sweepOnly(); return nil },
		pass: func(ctx context.Context, tr *runspan.Tracer) pass {
			p := sweepColdPass(ctx, tr, dg)
			counts = p.counts
			return p
		},
		finish: func(context.Context) (int, error) { return 0, nil },
		counts: func() map[string]float64 { return counts },
		inputs: func() string {
			return fmt.Sprintf("artifacts %v at test scale from reset; %d spec requests, %d distinct keys, repeat share %.4f",
				sweepArtifacts, len(reqs), distinct, 1-float64(distinct)/float64(len(reqs)))
		},
		close: func() {},
	}, nil
}

func setupSampled(ctx context.Context, seed int64, _ *runspan.Tracer, dg *digests) (*instance, error) {
	specs, points := sampledSpecs(seed)
	wire := make([]api.SimOptions, len(specs))
	for i, s := range specs {
		wire[i] = api.SimOptions{
			CommonOptions: api.CommonOptions{Scale: "full", Seed: s.Seed, FastForward: s.FastForward},
			Workload:      s.Workload, Design: s.Design, PageSize: s.PageSize, MaxInsts: s.MaxInsts,
		}
	}
	distinct, err := normalize(wire)
	if err != nil {
		return nil, err
	}
	var ffwd uint64
	for _, p := range points {
		ffwd += p.FFwd
	}
	var counts map[string]float64
	return &instance{
		// Keep only the digests of this seed's specs, after set-up is
		// timed.
		warm: func(context.Context) error { dg = dg.sampledSubset(specs); return nil },
		pass: func(ctx context.Context, tr *runspan.Tracer) pass {
			p := sampledPass(ctx, specs, tr, dg)
			counts = p.counts
			return p
		},
		finish: func(context.Context) (int, error) { return 0, nil },
		counts: func() map[string]float64 { return counts },
		inputs: func() string {
			return fmt.Sprintf("%d specs (%d distinct keys, repeat share %.4f) at full scale; %d fast-forward points (%d designs each), %.2fM instructions fast-forwarded per pass, window %d instructions",
				len(specs), distinct, 1-float64(distinct)/float64(len(specs)), len(points), ffwdDesigns, float64(ffwd)/1e6, ffwdWindow)
		},
		close: func() {},
	}, nil
}
