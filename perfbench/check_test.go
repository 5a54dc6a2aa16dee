package main

import (
	"context"
	"testing"

	"hbat/internal/engine"
	"hbat/internal/harness"
	"hbat/internal/runspan"
	"hbat/internal/workload"
)

func flipped(data []byte) []byte {
	out := append([]byte(nil), data...)
	out[len(out)/2] ^= 0x01
	return out
}

func TestSweepCheckFailsOnFlippedByte(t *testing.T) {
	dg, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	opts := harness.Options{Scale: workload.ScaleTest, Engine: engine.New()}
	data, err := renderArtifact(context.Background(), "table3", opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := dg.checkSweep("table3", data); err != nil {
		t.Fatalf("recorded output rejected: %v", err)
	}
	if dg.checkSweep("table3", flipped(data)) == nil {
		t.Fatal("a flipped byte passed the check")
	}
}

func TestSampledCheckFailsOnFlippedByte(t *testing.T) {
	dg, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	spec := ffwdSpec(ffwdPoint{Workload: "doduc", PageSize: 4096, FFwd: ffwdAt("doduc", ffwdStrata[0][0])}, "M8")
	r := engine.New().Run(context.Background(), spec)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	data := engine.Artifact(engine.Wire(r))
	if err := dg.checkSampled(spec, data); err != nil {
		t.Fatalf("recorded output rejected: %v", err)
	}
	if dg.checkSampled(spec, flipped(data)) == nil {
		t.Fatal("a flipped byte passed the check")
	}
}

func TestServedCheckFailsOnFlippedByte(t *testing.T) {
	data := []byte(`{"api": "v1", "cycles": 12345}` + "\n")
	if err := checkServed("k", engine.ArtifactSHA256(data), data); err != nil {
		t.Fatal(err)
	}
	if checkServed("k", engine.ArtifactSHA256(flipped(data)), data) == nil {
		t.Fatal("a flipped byte passed the check")
	}
}

// TestSelfTimes checks self time on a hand-built span tree: a benchmark
// root with an engine run linked by its W3C remote parent, whose two
// overlapping children cover part of it.
func TestSelfTimes(t *testing.T) {
	spans := []runspan.SpanData{
		{Trace: 1, Span: 1, Name: "bench.harness.fig5", StartUS: 0, DurUS: 1000, SpanW3C: "aa"},
		{Trace: 2, Span: 2, Name: "run", StartUS: 100, DurUS: 800, RemoteParent: "aa"},
		{Trace: 2, Span: 3, Parent: 2, Name: "program_build", StartUS: 100, DurUS: 200},
		{Trace: 2, Span: 4, Parent: 2, Name: "simulate", StartUS: 250, DurUS: 550},
		{Trace: 2, Span: 5, Parent: 3, Name: "singleflight_wait", StartUS: 100, DurUS: 50},
		// Not reachable from a benchmark root: ignored.
		{Trace: 3, Span: 6, Name: "sweep", StartUS: 0, DurUS: 5000},
	}
	got := selfTimes(spans)
	want := map[string]float64{
		"harness":  0.2,  // 1000 - 800 covered by run
		"engine":   0.1,  // 800 - union(100..300, 250..800) = 800 - 700
		"workload": 0.15, // 200 - 50 of waiting
		"cpu":      0.55,
	}
	for layer, w := range want {
		if g := got[layer]; g < w-1e-9 || g > w+1e-9 {
			t.Errorf("self[%s] = %v ms, want %v", layer, g, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
}

// TestFabricRounds checks the fabric-mixed mix: a round is half fresh
// keys never seen before and half repeats of the previous round's keys,
// and the same seed draws the same rounds.
func TestFabricRounds(t *testing.T) {
	g, again := newFabricGen(7), newFabricGen(7)
	seen := map[string]bool{}
	prev := map[int]bool{}
	for _, j := range g.warmRound() {
		seen[specKeyOf(t, j)] = true
		prev[j.N] = true
	}
	again.warmRound()
	for r := 0; r < 12; r++ { // crosses one walk of the combinations
		round, same := g.nextRound(), again.nextRound()
		cur := map[int]bool{}
		repeats := 0
		for i, j := range round {
			if j != same[i] {
				t.Fatalf("round %d job %d differs between two generators of one seed", r+1, i)
			}
			if j.Repeat {
				repeats++
				if !prev[j.N] {
					t.Fatalf("round %d repeats key %d, which the previous round did not complete", r+1, j.N)
				}
				continue
			}
			key := specKeyOf(t, j)
			if seen[key] {
				t.Fatalf("round %d: fresh key %d repeats an earlier key", r+1, j.N)
			}
			seen[key] = true
			cur[j.N] = true
		}
		if len(round) != fabricRoundJobs || repeats != fabricFresh {
			t.Fatalf("round %d: %d jobs, %d repeats", r+1, len(round), repeats)
		}
		prev = cur
	}
}

func specKeyOf(t *testing.T, j fabricJob) string {
	s, err := engine.SpecFromWire(j.Opts)
	if err != nil {
		t.Fatal(err)
	}
	return s.Hash()
}
