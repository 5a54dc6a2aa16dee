package main

import (
	"fmt"
	"math"
	"math/rand"

	"hbat/api"
	"hbat/internal/engine"
	"hbat/internal/prog"
	"hbat/internal/tlb"
	"hbat/internal/workload"
)

// The workload generator. The seed is the only input; everything the
// program under test receives is derived here from it.

// sweepArtifacts are the five report artifacts whose specs overlap
// (table3's runs are fig5's T4 column; the figures share every build),
// in the order sweep-cold requests them. sweep-cold is the fixed report
// sweep, so the seed does not change its inputs.
var sweepArtifacts = []string{"table3", "fig5", "fig7", "fig8", "fig9"}

// fullScaleInsts is each workload's functional instruction count at
// full scale with the 32/32 register budget, as measured at the commit
// that recorded digests.json. Fast-forward points are placed as
// fractions of it.
var fullScaleInsts = map[string]uint64{
	"compress": 827554, "doduc": 813262, "espresso": 821790,
	"gcc": 975560, "ghostscript": 874503, "mpeg_play": 1167007,
	"perl": 957896, "tfft": 2366254, "tomcatv": 1844135, "xlisp": 2211701,
}

// ffwdStrata are the candidate fast-forward fractions. A pass takes one
// point from each stratum, so every seed fast-forwards about the same
// total distance and the seed moves which points run, not how much
// work a pass does.
var ffwdStrata = [][]float64{
	{0.20, 0.25, 0.30},
	{0.45, 0.50, 0.55},
	{0.70, 0.75, 0.80},
}

const (
	// ffwdWindow caps each sampled point's cycle-accurate window.
	ffwdWindow = 3000
	// ffwdDesigns is how many designs share one checkpoint. With two,
	// exactly half the specs build a checkpoint and half reuse one, so
	// the median job latency fell between the two modes and moved 17%
	// between runs; with three it falls among the reuses.
	ffwdDesigns = 3
)

var pageSizes = []uint64{4096, 8192}

// ffwdPoint is one fast-forward point: the specs that share its
// checkpoint.
type ffwdPoint struct {
	Workload string
	PageSize uint64
	FFwd     uint64
}

func ffwdSpec(p ffwdPoint, design string) engine.RunSpec {
	return engine.RunSpec{
		Workload: p.Workload, Design: design, Budget: prog.Budget32,
		Scale: workload.ScaleFull, PageSize: p.PageSize, Seed: 1,
		FastForward: p.FFwd, MaxInsts: ffwdWindow,
	}
}

func ffwdAt(w string, frac float64) uint64 {
	return uint64(math.Round(frac * float64(fullScaleInsts[w])))
}

// sampledSpecs returns one sampled-ffwd pass: every workload at both
// page sizes, one point per stratum, ffwdDesigns distinct designs per
// point. Specs are ordered design slot first, as the harness orders a
// design × workload grid, so the engine builds different checkpoints in
// parallel and the second design of a point finds its checkpoint ready.
func sampledSpecs(seed int64) (specs []engine.RunSpec, points []ffwdPoint) {
	r := rand.New(rand.NewSource(seed))
	var designs [][]string
	for _, w := range workload.Names() {
		for _, ps := range pageSizes {
			for _, stratum := range ffwdStrata {
				points = append(points, ffwdPoint{Workload: w, PageSize: ps, FFwd: ffwdAt(w, stratum[r.Intn(len(stratum))])})
				var ds []string
				for _, i := range r.Perm(len(tlb.DesignOrder))[:ffwdDesigns] {
					ds = append(ds, tlb.DesignOrder[i])
				}
				designs = append(designs, ds)
			}
		}
	}
	for slot := 0; slot < ffwdDesigns; slot++ {
		for i, p := range points {
			specs = append(specs, ffwdSpec(p, designs[i][slot]))
		}
	}
	return specs, points
}

// allSampledSpecs lists every spec any seed can generate, for recording
// digests.
func allSampledSpecs() []engine.RunSpec {
	var out []engine.RunSpec
	for _, w := range workload.Names() {
		for _, ps := range pageSizes {
			for _, stratum := range ffwdStrata {
				for _, f := range stratum {
					for _, d := range tlb.DesignOrder {
						out = append(out, ffwdSpec(ffwdPoint{w, ps, ffwdAt(w, f)}, d))
					}
				}
			}
		}
	}
	return out
}

// specLabel names a spec by every field the generator sets, so digests
// do not depend on the engine's internal fingerprint.
func specLabel(s engine.RunSpec) string {
	return fmt.Sprintf("%s/%s/%s/%d/inorder=%t/%s/seed=%d/ffwd=%d/max=%d",
		s.Workload, s.Design, s.Scale, s.PageSize, s.InOrder, s.Budget, s.Seed, s.FastForward, s.MaxInsts)
}

// The fabric-mixed key mix. Nothing in the repository records a real
// job mix, so the mix copies the one request pattern the repository
// does exercise, the CI fabric smoke: one tenant's job simulates a spec,
// and a second tenant's identical job is served from the store. Here
// every fresh key is asked for exactly twice, once fresh and once as a
// repeat in the next round, after it has completed. That fixes the
// repeat share at one half, so the read path and the write path carry
// comparable load. The remaining constants are assumptions, each with
// its reason.
const (
	// fabricWindow caps every fabric-mixed job's cycle-accurate window
	// (MaxInsts). Assumption: the window sampled-ffwd measures, so a
	// fresh job costs about one sampled window of simulation, a few
	// milliseconds, and serving is not drowned by simulation.
	fabricWindow = 3000
	// fabricRoundJobs is the number of jobs in one timed round, half
	// fresh and half repeats. Assumption: enough jobs that a round's p95
	// still has ten jobs beyond it.
	fabricRoundJobs = 200
	// fabricFresh is the number of fresh keys per round.
	fabricFresh = fabricRoundJobs / 2
)

// fabricSpace is the number of test-scale spec combinations fresh keys
// walk through: workload × design × page size × issue mode × register
// budget.
var fabricSpace = len(workload.Names()) * len(tlb.DesignOrder) * len(pageSizes) * 2 * 2

// fabricOpts returns fresh key n: combination perm[n mod fabricSpace],
// with simulation seed 1 + n / fabricSpace, so no fresh key equals an
// earlier one however long a run.
func fabricOpts(perm []int, n int) api.SimOptions {
	c := perm[n%len(perm)]
	few := c%2 == 1
	c /= 2
	inOrder := c%2 == 1
	c /= 2
	ps := pageSizes[c%len(pageSizes)]
	c /= len(pageSizes)
	d := tlb.DesignOrder[c%len(tlb.DesignOrder)]
	c /= len(tlb.DesignOrder)
	return api.SimOptions{
		CommonOptions: api.CommonOptions{Scale: "test", Seed: uint64(1 + n/len(perm))},
		Workload:      workload.Names()[c], Design: d, PageSize: ps,
		InOrder: inOrder, FewRegisters: few, MaxInsts: fabricWindow,
	}
}

// fabricJob is one generated job: fresh key N, and whether it repeats
// a key that has already completed.
type fabricJob struct {
	N      int
	Opts   api.SimOptions
	Repeat bool
}

// fabricGen draws the fabric-mixed job stream from the seed: the order
// in which fresh keys walk the combinations, and the order of jobs
// within a round. Round 0 (the set-up's warm-up) is fresh keys 0..99;
// round r ≥ 1 is fresh keys 100r..100r+99 shuffled together with
// repeats of round r-1's keys.
type fabricGen struct {
	r     *rand.Rand
	perm  []int
	round int
}

func newFabricGen(seed int64) *fabricGen {
	r := rand.New(rand.NewSource(seed))
	return &fabricGen{r: r, perm: r.Perm(fabricSpace)}
}

func (g *fabricGen) fresh(n int) fabricJob {
	return fabricJob{N: n, Opts: fabricOpts(g.perm, n)}
}

// warmRound returns round 0: the first fabricFresh fresh keys.
func (g *fabricGen) warmRound() []fabricJob {
	out := make([]fabricJob, fabricFresh)
	for i := range out {
		out[i] = g.fresh(i)
	}
	return out
}

// nextRound returns the next timed round.
func (g *fabricGen) nextRound() []fabricJob {
	g.round++
	out := make([]fabricJob, 0, fabricRoundJobs)
	for i := 0; i < fabricFresh; i++ {
		out = append(out, g.fresh(g.round*fabricFresh+i))
		rep := g.fresh((g.round-1)*fabricFresh + i)
		rep.Repeat = true
		out = append(out, rep)
	}
	g.r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
