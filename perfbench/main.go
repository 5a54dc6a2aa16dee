// Command perfbench is the repository's benchmark. One invocation runs
// one named workload under a seed and prints, as its last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With -trace 0
// the metrics are the end-to-end ones; with -trace 1 a traced run
// reports the per-layer ones. See README.md for the workloads, the
// metrics and the layer map.
//
//	go run . -workload sweep-cold -seed 1 -seconds 25 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"hbat/internal/runspan"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: sweep-cold, sampled-ffwd or fabric-mixed")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 25, "measurement budget in seconds")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		record  = flag.String("record-digests", "", "regenerate the expected-output digests into this file and exit")
	)
	flag.Parse()
	ctx := context.Background()
	if *record != "" {
		if err := recordDigests(ctx, *record); err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok {
		logf("unknown workload %q (known: %s)", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second
	var out result
	var err error
	if *traced == 1 {
		out, err = tracedRun(ctx, w, *name, *seed, budget)
	} else {
		out, err = untracedRun(ctx, w, *seed, budget)
	}
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	out.Correct = out.Failed == 0
	fmt.Printf("fail_ratio %.6f (%d failed of %d attempted)\n", float64(out.Failed)/float64(out.Attempted), out.Failed, out.Attempted)
	line, err := json.Marshal(out)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one workload: set up (timed several times), then run passes.
type bench struct {
	// setup prepares one run: it generates the inputs and builds what
	// the passes run on.
	setup func(ctx context.Context, seed int64, tr *runspan.Tracer, dg *digests) (*instance, error)
	// setupReps is how many times a run sets up before its passes, and
	// setupPerPass how many more times it sets up (and closes again)
	// after each pass, so that the set-up times sample the host over
	// the whole run as the passes do. setup_s is their median.
	setupReps, setupPerPass int
	// minPasses is the fewest passes a run makes whatever its budget.
	minPasses int
}

// instance is one set-up run of a workload.
type instance struct {
	pass func(ctx context.Context, tr *runspan.Tracer) pass
	// finish runs the output check that follows the timed window and
	// returns the number of failed checks.
	finish func(ctx context.Context) (bad int, err error)
	// counts reads layer counters after the passes.
	counts func() map[string]float64
	// warm, when non-nil, runs once on the kept instance after set-up
	// is timed (fabric-mixed completes its first round of keys there).
	warm func(ctx context.Context) error
	// inputs describes the generated inputs, printed once per run.
	inputs func() string
	close  func()
}

var workloads = map[string]bench{
	"sweep-cold":   {setup: setupSweepCold, setupReps: 50, setupPerPass: 50, minPasses: 2},
	"sampled-ffwd": {setup: setupSampled, setupReps: 50, setupPerPass: 5, minPasses: 3},
	"fabric-mixed": {setup: setupFabric, setupReps: 5, setupPerPass: 1, minPasses: 5},
}

func workloadNames() []string {
	var out []string
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// prepare sets the workload up w.setupReps times and keeps the last
// instance. The expected digests are parsed once, before the timed
// set-ups; each instance keeps only the ones its inputs need, so the
// full table is garbage by the time the heap is read.
func prepare(ctx context.Context, w bench, seed int64, tr *runspan.Tracer) (*instance, []float64, error) {
	dg, err := loadDigests()
	if err != nil {
		return nil, nil, err
	}
	var times []float64
	var inst *instance
	for i := 0; i < w.setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		inst, err = w.setup(ctx, seed, tr, dg)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	if inst.warm != nil {
		if err := inst.warm(ctx); err != nil {
			inst.close()
			return nil, nil, err
		}
	}
	return inst, times, nil
}

// timeSetups sets the workload up n times, closing each instance at
// once, and appends the set-up times to times. The instances are never
// run, so they get no digests.
func timeSetups(ctx context.Context, w bench, seed int64, n int, times *[]float64) error {
	for i := 0; i < n; i++ {
		start := time.Now()
		inst, err := w.setup(ctx, seed, nil, nil)
		if err != nil {
			return err
		}
		*times = append(*times, time.Since(start).Seconds())
		inst.close()
	}
	return nil
}

// runPasses runs untraced passes until the next one would overrun
// budget, making at least min. afterPass, when non-nil, runs after each
// pass (n passes done) while that pass's retained state is still
// reachable.
func runPasses(ctx context.Context, inst *instance, budget time.Duration, min int, afterPass func(n int) error) ([]pass, error) {
	var out []pass
	start := time.Now()
	var last time.Duration
	for len(out) < min || time.Since(start)+last <= budget {
		t := time.Now()
		out = append(out, inst.pass(ctx, nil))
		last = time.Since(t)
		if afterPass != nil {
			if err := afterPass(len(out)); err != nil {
				return nil, err
			}
		}
		out[len(out)-1].retained = nil
	}
	return out, nil
}

// summary reduces passes to the end-to-end metrics.
type summary struct {
	wallS, jobsPerS, p50, tail, tailPct float64
	samples, attempted, failed          int
}

// summarize reduces passes to medians over passes, except job_p50_ms,
// the median of every job. The tail is taken per pass, at the highest
// percentile with ten jobs beyond it in a pass, and the median over
// passes is reported: a burst of host contention then moves one pass's
// tail, not the run's. Every pass of a workload has the same number of
// jobs, so every run reports the same percentile.
func summarize(ps []pass) summary {
	var s summary
	var walls, rates, lat, tails []float64
	s.tailPct = tailPct(ps[0].jobs)
	for _, p := range ps {
		tails = append(tails, quantile(p.latMs, s.tailPct/100))
		walls = append(walls, p.wall.Seconds())
		rates = append(rates, float64(p.jobs)/p.wall.Seconds())
		lat = append(lat, p.latMs...)
		s.attempted += p.attempted
		s.failed += p.failed
	}
	s.wallS, s.jobsPerS = median(walls), median(rates)
	s.p50 = median(lat)
	s.tail = median(tails)
	s.samples = len(lat)
	return s
}

func untracedRun(ctx context.Context, w bench, seed int64, budget time.Duration) (result, error) {
	inst, setups, err := prepare(ctx, w, seed, nil)
	if err != nil {
		return result{}, err
	}
	defer inst.close()
	// Memory is read after a fixed amount of work (the first minPasses
	// passes): the fabric's stores grow with every job, so a reading at
	// the end of the budget would track host speed.
	var heapMB float64
	ps, err := runPasses(ctx, inst, budget, w.minPasses, func(n int) error {
		if n == w.minPasses {
			heapMB = retainedHeapMB()
		}
		return timeSetups(ctx, w, seed, w.setupPerPass, &setups)
	})
	if err != nil {
		return result{}, err
	}
	s := summarize(ps)
	bad, err := inst.finish(ctx)
	if err != nil {
		return result{}, err
	}
	fmt.Println("inputs:", inst.inputs())
	fmt.Printf("passes %d, jobs per pass %d, latency samples %d, set-ups timed %d\n", len(ps), ps[0].jobs, s.samples, len(setups))
	fmt.Printf("job_tail_ms is the median over %d passes of each pass's p%g (%d jobs per pass, %d beyond it)\n",
		len(ps), s.tailPct, ps[0].jobs, int(math.Round(float64(ps[0].jobs)*(1-s.tailPct/100))))
	return result{
		Attempted: s.attempted + bad,
		Failed:    s.failed + bad,
		Metrics: map[string]metric{
			"setup_s":      {median(setups), "s"},
			"wall_s":       {s.wallS, "s"},
			"jobs_per_s":   {s.jobsPerS, "1/s"},
			"job_p50_ms":   {s.p50, "ms"},
			"job_tail_ms":  {s.tail, "ms"},
			"heap_peak_mb": {heapMB, "MB"},
		},
	}, nil
}

// tracedRun alternates untraced and traced passes on two instances of
// the workload, so host drift hits both alike (their wall_s ratio is the
// tracing overhead), reports self time per layer from the traced
// passes' spans, and runs the layer probes.
func tracedRun(ctx context.Context, w bench, name string, seed int64, budget time.Duration) (result, error) {
	m := map[string]float64{}
	plainInst, _, err := prepare(ctx, w, seed, nil)
	if err != nil {
		return result{}, err
	}
	defer plainInst.close()
	tr := runspan.New(runspan.Config{})
	inst, _, err := prepare(ctx, w, seed, tr)
	if err != nil {
		return result{}, err
	}
	defer inst.close()
	// Set-up spans (fabric warm-up) are not part of the measured work.
	skip := len(tr.Spans())
	var plain, traced []pass
	start := time.Now()
	var last time.Duration
	for len(traced) == 0 || time.Since(start)+last <= budget {
		t := time.Now()
		p := plainInst.pass(ctx, nil)
		p.retained = nil
		plain = append(plain, p)
		p = inst.pass(ctx, tr)
		p.retained = nil
		traced = append(traced, p)
		last = time.Since(t)
	}
	spans := tr.Spans()[skip:]
	badPlain, err := plainInst.finish(ctx)
	if err != nil {
		return result{}, err
	}
	bad, err := inst.finish(ctx)
	if err != nil {
		return result{}, err
	}
	counts := inst.counts()
	for _, k := range []string{"workload.builds", "engine.spec_misses"} {
		m[k] = counts[k]
	}
	fmt.Println("inputs:", inst.inputs())
	fmt.Println("counts:", formatCounts(counts))

	sp, st := summarize(plain), summarize(traced)
	m["trace.wall_ratio"] = st.wallS / sp.wallS
	m["trace.spans"] = float64(len(spans))
	fmt.Printf("tracing overhead: wall_s %+.4f s, jobs_per_s %+.3f /s (traced minus untraced, %d passes each)\n",
		st.wallS-sp.wallS, st.jobsPerS-sp.jobsPerS, len(traced))
	self := selfTimes(spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(a, b int) bool { return self[layers[a]] > self[layers[b]] })
	fmt.Printf("self time per layer over %d traced passes:\n", len(traced))
	for _, l := range layers {
		fmt.Printf("  %-10s %10.1f ms\n", l, self[l])
	}
	for _, l := range []string{"engine", "workload", "cpu"} {
		m["self_ms."+l] = self[l] / float64(len(traced))
	}
	path, err := writeSpans(".bench_out", fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed), spans)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("spans: %s\n", path)

	if err := runProbes(ctx, seed, m); err != nil {
		return result{}, err
	}
	out := result{Attempted: sp.attempted + st.attempted + badPlain + bad, Failed: sp.failed + st.failed + badPlain + bad, Metrics: map[string]metric{}}
	for k, unit := range layerUnits {
		v, ok := m[k]
		if !ok || !(v > 0) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("per-layer metric %s is %v: every metric must be a positive measurement", k, v)
		}
		out.Metrics[k] = metric{v, unit}
	}
	return out, nil
}

// formatCounts prints layer counters that only some workloads move, and
// that are therefore not metrics (a metric is never 0): ckpt.* move on
// sampled-ffwd alone, store.hit_ratio on fabric-mixed alone, and
// fleet.spec_retries stays 0 on a fault-free loopback fabric.
func formatCounts(c map[string]float64) string {
	var parts []string
	for _, k := range []string{"workload.builds", "engine.spec_misses", "ckpt.builds", "ckpt.hits", "store.hit_ratio", "fleet.spec_retries"} {
		parts = append(parts, fmt.Sprintf("%s=%.4g", k, c[k]))
	}
	return strings.Join(parts, " ")
}

// layerUnits lists every per-layer metric with its unit.
var layerUnits = func() map[string]string {
	u := map[string]string{
		"cpu.mcycles_per_s": "Mcycle/s", "cpu.allocs_per_run": "count",
		"workload.build_ms": "ms", "workload.builds": "count",
		"emu.interp_minst_per_s": "Minst/s", "emu.sblock_minst_per_s": "Minst/s",
		"ckpt.build_ms_p50": "ms", "ckpt.warm_minst_per_s": "Minst/s",
		"engine.run_ratio": "ratio", "engine.memo_hit_us": "us", "engine.spec_misses": "count",
		"harness.render_ms": "ms",
		"store.put_us":      "us", "store.get_us": "us",
		"transport.job_ratio": "ratio", "fleet.job_ratio": "ratio",
		"api.submit_ms": "ms", "api.wait_ms": "ms", "api.result_ms": "ms",
		"self_ms.engine": "ms", "self_ms.workload": "ms", "self_ms.cpu": "ms",
		"trace.wall_ratio": "ratio", "trace.spans": "count",
	}
	for _, f := range cpuFamilies {
		u["cpu.minst_per_s."+f.name] = "Minst/s"
	}
	for _, d := range tlbDesigns() {
		u["tlb.lookup_ns."+d] = "ns"
	}
	return u
}()

// retainedHeapMB forces a collection and returns the live heap in
// MiB: what the work holds at that moment. Called at the end of the
// minimum passes, while the last pass's engine (memo, checkpoints) or
// the fabric's stores are still reachable, it reads the most the work
// retains at once, as retained memory only grows within a pass.
// Sampling the live heap at natural collections instead moved the
// reading by up to 25% between identical runs, with the collector's
// timing.
func retainedHeapMB() float64 {
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	return float64(live[0].Value.Uint64()) / (1 << 20)
}
