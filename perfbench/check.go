package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"hbat/internal/engine"
	"hbat/internal/harness"
	"hbat/internal/workload"
)

// digests.json holds the SHA-256 of every output the engine-driven
// workloads can produce, recorded with -record-digests. Simulation is
// deterministic, so any change to these bytes is a change in what the
// reproduction computes.
//
//go:embed digests.json
var digestsJSON []byte

type digests struct {
	// Sweep maps a report artifact to the digest of its rendered text
	// at test scale.
	Sweep map[string]string `json:"sweep"`
	// Sampled maps specLabel of every spec sampledSpecs can generate to
	// the digest of its canonical result artifact.
	Sampled map[string]string `json:"sampled"`
}

func loadDigests() (*digests, error) {
	var d digests
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return &d, nil
}

// sampledSubset returns the digests of specs alone, so a run keeps only
// what its seed draws, not every spec any seed can draw.
func (d *digests) sampledSubset(specs []engine.RunSpec) *digests {
	out := &digests{Sampled: make(map[string]string, len(specs))}
	for _, s := range specs {
		label := specLabel(s)
		out.Sampled[label] = d.Sampled[label]
	}
	return out
}

// sweepOnly returns the digests of the five report artifacts alone.
func (d *digests) sweepOnly() *digests {
	out := &digests{Sweep: make(map[string]string, len(d.Sweep))}
	for k, v := range d.Sweep {
		out.Sweep[k] = v
	}
	return out
}

func (d *digests) checkSweep(name string, data []byte) error {
	return match(name, d.Sweep[name], data)
}

func (d *digests) checkSampled(s engine.RunSpec, data []byte) error {
	label := specLabel(s)
	return match(label, d.Sampled[label], data)
}

func match(what, want string, data []byte) error {
	if want == "" {
		return fmt.Errorf("%s: no recorded digest", what)
	}
	if got := engine.ArtifactSHA256(data); got != want {
		return fmt.Errorf("%s: output digest %s, recorded %s", what, got[:12], want[:12])
	}
	return nil
}

// checkServed compares the content hash of the bytes the fabric served
// for one key with a fresh in-process simulation of the same spec.
func checkServed(key, servedSHA string, local []byte) error {
	if sha := engine.ArtifactSHA256(local); sha != servedSHA {
		return fmt.Errorf("%s: served bytes (sha %s) differ from in-process result (sha %s)",
			key, servedSHA[:12], sha[:12])
	}
	return nil
}

// recordDigests regenerates digests.json at path: the five artifacts
// and every spec any seed of sampled-ffwd can draw.
func recordDigests(ctx context.Context, path string) error {
	d := digests{Sweep: map[string]string{}, Sampled: map[string]string{}}
	opts := harness.Options{Scale: workload.ScaleTest, Engine: engine.New()}
	for _, name := range sweepArtifacts {
		data, err := renderArtifact(ctx, name, opts)
		if err != nil {
			return err
		}
		d.Sweep[name] = engine.ArtifactSHA256(data)
	}
	specs := allSampledSpecs()
	results, err := engine.New().RunAll(ctx, specs, 0, nil)
	if err != nil {
		return err
	}
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
		d.Sampled[specLabel(r.Spec)] = engine.ArtifactSHA256(engine.Artifact(engine.Wire(r)))
	}
	// MarshalIndent sorts map keys, one per line, so the file diffs
	// cleanly.
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
