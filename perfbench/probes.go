package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"hbat/api"
	"hbat/internal/bpred"
	"hbat/internal/cache"
	"hbat/internal/ckpt"
	"hbat/internal/cpu"
	"hbat/internal/emu"
	"hbat/internal/emu/sblock"
	"hbat/internal/engine"
	"hbat/internal/harness"
	"hbat/internal/isa"
	"hbat/internal/prog"
	"hbat/internal/store"
	"hbat/internal/tlb"
	"hbat/internal/workload"
)

// Layer probes time calls into each layer's public functions from
// outside, on fixed inputs. Every traced run makes the same probes, so
// a layer's number does not depend on which workload was traced.

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// cpuFamilies maps each design family to the design (and issue mode)
// that represents it.
var cpuFamilies = []struct {
	name, design string
	inOrder      bool
}{
	{"ported", "T4", false},
	{"interleaved", "I4", false},
	{"multilevel", "M8", false},
	{"pretrans", "P8", false},
	{"piggyback", "PB2", false},
	{"inorder", "T4", true},
}

func testPrograms() (map[string]*prog.Program, error) {
	out := map[string]*prog.Program{}
	for _, w := range workload.All() {
		p, err := w.Build(prog.Budget32, workload.ScaleTest)
		if err != nil {
			return nil, err
		}
		out[w.Name] = p
	}
	return out, nil
}

func machineConfig(inOrder bool) cpu.Config {
	cfg := cpu.DefaultConfig()
	cfg.PageSize = 4096
	cfg.InOrder = inOrder
	return cfg
}

// probeCPU runs every test-scale workload on each family's design
// directly on the cycle core.
func probeCPU(m map[string]float64) error {
	progs, err := testPrograms()
	if err != nil {
		return err
	}
	var cycles, secs float64
	for _, fam := range cpuFamilies {
		var insts uint64
		start := time.Now()
		for _, name := range workload.Names() {
			mc, err := cpu.NewWithDesign(progs[name], machineConfig(fam.inOrder), fam.design)
			if err != nil {
				return err
			}
			if err := mc.Run(); err != nil {
				return fmt.Errorf("cpu %s/%s: %w", name, fam.design, err)
			}
			insts += mc.Stats().Committed
			cycles += float64(mc.Stats().Cycles)
		}
		s := time.Since(start).Seconds()
		secs += s
		m["cpu.minst_per_s."+fam.name] = float64(insts) / s / 1e6
	}
	m["cpu.mcycles_per_s"] = cycles / secs / 1e6
	// Allocations of one machine: construction plus a whole run.
	var allocs []float64
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mc, err := cpu.NewWithDesign(progs["espresso"], machineConfig(false), "T4")
		if err != nil {
			return err
		}
		if err := mc.Run(); err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
	}
	m["cpu.allocs_per_run"] = median(allocs)
	return nil
}

// tlbRef is one data reference of a workload's functional run.
type tlbRef struct {
	vpn   uint64
	write bool
}

// probeTLB replays one workload's data-reference stream (the seed picks
// the workload) through every design's Device.Lookup, two requests per
// cycle, filling on a miss as the core does after a walk.
func probeTLB(seed int64, m map[string]float64) error {
	names := workload.Names()
	w, _ := workload.ByName(names[int(seed%int64(len(names))+int64(len(names)))%len(names)])
	p, err := w.Build(prog.Budget32, workload.ScaleTest)
	if err != nil {
		return err
	}
	em, err := emu.New(p, 4096)
	if err != nil {
		return err
	}
	var refs []tlbRef
	bits := em.AS.PageBits()
	em.OnMemRef = func(vaddr uint64, write bool) { refs = append(refs, tlbRef{vaddr >> bits, write}) }
	if err := em.Run(0); err != nil {
		return err
	}
	const lookups = 400000
	for _, design := range tlb.DesignOrder {
		d, err := tlb.NewFromSpec(design, em.AS, 1)
		if err != nil {
			return err
		}
		now := int64(0)
		n := 0
		start := time.Now()
		for n < lookups {
			for i, r := range refs {
				if i%2 == 0 {
					now++
					d.BeginCycle(now)
				}
				// Base register: a stand-in derived from the page, so
				// pretranslation sees a stable base per page.
				req := tlb.Request{VPN: r.vpn, Write: r.write, Base: isa.Reg(1 + r.vpn%15), Load: !r.write}
				if d.Lookup(req, now).Outcome == tlb.Miss {
					if _, err := d.Fill(r.vpn, now); err != nil {
						return fmt.Errorf("tlb %s fill: %w", design, err)
					}
				}
			}
			n += len(refs)
		}
		m["tlb.lookup_ns."+metricName(design)] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return nil
}

// metricName spells a design mnemonic as a metric name ("I4/PB" is
// "I4-PB").
func metricName(design string) string { return strings.ReplaceAll(design, "/", "-") }

func tlbDesigns() []string {
	out := make([]string, len(tlb.DesignOrder))
	for i, d := range tlb.DesignOrder {
		out[i] = metricName(d)
	}
	return out
}

// probeBuilds builds every workload under both register budgets at
// test and full scale.
func probeBuilds(m map[string]float64) error {
	var total float64
	n := 0
	for _, sc := range []workload.Scale{workload.ScaleTest, workload.ScaleFull} {
		for _, b := range []prog.RegBudget{prog.Budget32, prog.Budget8} {
			for _, w := range workload.All() {
				start := time.Now()
				if _, err := w.Build(b, sc); err != nil {
					return err
				}
				total += msSince(start)
				n++
			}
		}
	}
	m["workload.build_ms"] = total / float64(n)
	return nil
}

// probeFunctional times the functional engines bare and the checkpoint
// builder, each fast-forwarding every full-scale workload to its
// midpoint.
func probeFunctional(ctx context.Context, m map[string]float64) error {
	var insts, interp, sb, warm float64
	var builds []float64
	for _, w := range workload.All() {
		p, err := w.Build(prog.Budget32, workload.ScaleFull)
		if err != nil {
			return err
		}
		n := ffwdAt(w.Name, 0.5)
		raw := func(translated bool) (float64, error) {
			em, err := emu.New(p, 4096)
			if err != nil {
				return 0, err
			}
			start := time.Now()
			if translated {
				err = sblock.New(em).Run(n)
			} else {
				err = em.Run(n)
			}
			if err != nil && em.InstCount < n {
				return 0, err
			}
			return time.Since(start).Seconds(), nil
		}
		ti, err := raw(false)
		if err != nil {
			return err
		}
		ts, err := raw(true)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := ckpt.Build(ctx, p, ckpt.BuildConfig{
			PageSize: 4096, FastForward: n,
			ICache: cache.DefaultICache(), DCache: cache.DefaultDCache(), Branch: bpred.DefaultConfig(),
		}); err != nil {
			return err
		}
		tb := time.Since(start).Seconds()
		insts += float64(n)
		interp += ti
		sb += ts
		warm += tb
		builds = append(builds, tb*1e3)
	}
	m["emu.interp_minst_per_s"] = insts / interp / 1e6
	m["emu.sblock_minst_per_s"] = insts / sb / 1e6
	m["ckpt.warm_minst_per_s"] = insts / warm / 1e6
	m["ckpt.build_ms_p50"] = median(builds)
	return nil
}

// probeSpecs are the engine probe's specs: every test-scale workload,
// out-of-order and in-order, on T4.
func probeSpecs() []engine.RunSpec {
	var out []engine.RunSpec
	for _, w := range workload.Names() {
		for _, inOrder := range []bool{false, true} {
			out = append(out, engine.RunSpec{
				Workload: w, Design: "T4", Budget: prog.Budget32, Scale: workload.ScaleTest,
				PageSize: 4096, InOrder: inOrder, Seed: 1,
			})
		}
	}
	return out
}

// probeEngine measures what the engine adds to a simulation: engine.Run
// of a spec over a direct cycle-core run of the same spec (builds
// already cached), as a ratio, so it stays positive when the engine's
// cost is within the noise of the two timings; and the cost of serving
// a memo hit. It also times a warm re-render of the five artifacts
// through the harness.
func probeEngine(ctx context.Context, m map[string]float64) ([][]byte, error) {
	e := engine.New()
	specs := probeSpecs()
	if err := e.PrewarmBuilds(ctx, specs); err != nil {
		return nil, err
	}
	var ratio, over []float64
	var artifacts [][]byte
	for _, s := range specs {
		p, err := e.BuildProgram(s)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		mc, err := cpu.NewWithDesign(p, machineConfig(s.InOrder), s.Design)
		if err != nil {
			return nil, err
		}
		if err := mc.Run(); err != nil {
			return nil, err
		}
		direct := msSince(start)
		start = time.Now()
		r := e.Run(ctx, s)
		viaEngine := msSince(start)
		if r.Err != nil {
			return nil, r.Err
		}
		ratio = append(ratio, viaEngine/direct)
		over = append(over, viaEngine-direct)
		artifacts = append(artifacts, engine.Artifact(engine.Wire(r)))
	}
	m["engine.run_ratio"] = median(ratio)
	fmt.Printf("engine: engine.Run over a direct run %.4f, difference %+.3f ms (medians over %d specs)\n",
		median(ratio), median(over), len(specs))
	var hits []float64
	for i := 0; i < 400; i++ {
		start := time.Now()
		e.Run(ctx, specs[i%len(specs)])
		hits = append(hits, float64(time.Since(start).Nanoseconds())/1e3)
	}
	m["engine.memo_hit_us"] = median(hits)

	// Harness: the five artifacts over one workload, re-rendered on a
	// warm engine, so only the harness's own work is timed.
	opts := harness.Options{Scale: workload.ScaleTest, Engine: e, Workloads: []string{"doduc"}}
	var renders []float64
	for i := 0; i < 6; i++ {
		start := time.Now()
		for _, name := range sweepArtifacts {
			if _, err := renderArtifact(ctx, name, opts); err != nil {
				return nil, err
			}
		}
		if i > 0 {
			renders = append(renders, msSince(start))
		}
	}
	m["harness.render_ms"] = median(renders)
	return artifacts, nil
}

// probeStore puts and gets real artifacts in a fresh memory store.
func probeStore(artifacts [][]byte, m map[string]float64) error {
	st, err := store.New(store.Config{})
	if err != nil {
		return err
	}
	const n = 2000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%012x", i)
	}
	start := time.Now()
	for i, k := range keys {
		if _, err := st.Put("bench", k, artifacts[i%len(artifacts)]); err != nil {
			return err
		}
	}
	m["store.put_us"] = float64(time.Since(start).Nanoseconds()) / 1e3 / n
	start = time.Now()
	for r := 0; r < 5; r++ {
		for _, k := range keys {
			if _, _, ok := st.Get(k); !ok {
				return fmt.Errorf("store probe: %s missing", k)
			}
		}
	}
	m["store.get_us"] = float64(time.Since(start).Nanoseconds()) / 1e3 / (5 * n)
	return nil
}

// probeFabric prices serving: the same kind of one-spec job run on an
// engine in-process, submitted straight to an hbatd worker, and
// submitted through the hbatc coordinator. Each job has its own seed,
// so every one is a fresh key of equal cost. Each layer's cost is the
// ratio of the medians with and without it, which stays positive.
func probeFabric(ctx context.Context, m map[string]float64) error {
	f, err := bootFabric(ctx, nil)
	if err != nil {
		return err
	}
	defer f.close()
	opts := func(seed uint64) api.SimOptions {
		return api.SimOptions{
			CommonOptions: api.CommonOptions{Scale: "test", Seed: seed},
			Workload:      "compress", Design: "T4", MaxInsts: 4000,
		}
	}
	local := engine.New()
	direct := api.NewClient(f.workers[0].addr)
	coord := api.NewClient(f.addr)
	// Warm every program cache and connection first.
	seed := uint64(1000)
	for _, c := range []*api.Client{direct, coord, coord} {
		if _, _, err := runJob(ctx, c, opts(seed), nil, ""); err != nil {
			return err
		}
		seed++
	}
	spec, err := engine.SpecFromWire(opts(seed))
	if err != nil {
		return err
	}
	if r := local.Run(ctx, spec); r.Err != nil {
		return r.Err
	}
	seed++
	var inproc, viaWorker, viaCoord, submit, wait, result []float64
	for i := 0; i < 24; i++ {
		spec, err := engine.SpecFromWire(opts(seed))
		if err != nil {
			return err
		}
		start := time.Now()
		if r := local.Run(ctx, spec); r.Err != nil {
			return r.Err
		}
		inproc = append(inproc, msSince(start))
		if _, t, err := runJob(ctx, direct, opts(seed+1), nil, ""); err != nil {
			return err
		} else {
			viaWorker = append(viaWorker, float64(t.total.Microseconds())/1e3)
		}
		_, t, err := runJob(ctx, coord, opts(seed+2), nil, "")
		if err != nil {
			return err
		}
		viaCoord = append(viaCoord, float64(t.total.Microseconds())/1e3)
		submit = append(submit, float64(t.submit.Microseconds())/1e3)
		wait = append(wait, float64(t.wait.Microseconds())/1e3)
		result = append(result, float64(t.result.Microseconds())/1e3)
		seed += 3
	}
	m["transport.job_ratio"] = median(viaWorker) / median(inproc)
	m["fleet.job_ratio"] = median(viaCoord) / median(viaWorker)
	fmt.Printf("serving: in-process %.3f ms, straight to hbatd %.3f ms, through hbatc %.3f ms (medians over %d jobs each)\n",
		median(inproc), median(viaWorker), median(viaCoord), len(inproc))
	m["api.submit_ms"] = median(submit)
	m["api.wait_ms"] = median(wait)
	m["api.result_ms"] = median(result)
	return nil
}

// runProbes runs every layer probe.
func runProbes(ctx context.Context, seed int64, m map[string]float64) error {
	if err := probeCPU(m); err != nil {
		return err
	}
	if err := probeTLB(seed, m); err != nil {
		return err
	}
	if err := probeBuilds(m); err != nil {
		return err
	}
	if err := probeFunctional(ctx, m); err != nil {
		return err
	}
	artifacts, err := probeEngine(ctx, m)
	if err != nil {
		return err
	}
	if err := probeStore(artifacts, m); err != nil {
		return err
	}
	return probeFabric(ctx, m)
}
