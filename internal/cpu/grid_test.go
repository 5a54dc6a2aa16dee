package cpu

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"hbat/internal/prog"
	"hbat/internal/tlb"
	"hbat/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// gridMaxInsts caps each grid cell's measurement window. It is long
// enough to reach steady state past the cold-start walks and short
// enough that the 1040 cells stay a few seconds of test time.
const gridMaxInsts = 5000

const gridGolden = "testdata/grid_stats.golden"

// statsFingerprint hashes every field of the run's cpu.Stats and of its
// data translation device's tlb.Stats (%+v prints each field by name,
// so a field added later is covered without touching this code).
func statsFingerprint(m *Machine) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v\n%+v", *m.Stats(), *m.DTLB.Stats())))
	return fmt.Sprintf("%x", sum[:8])
}

// TestGridStatsGolden pins the cycle core's timing: every Table 2
// design on every workload, with out-of-order and in-order issue, 4 KB
// and 8 KB pages, and the 32/32 and 8/8 register budgets, must produce
// byte-identical statistics. A change that only restructures the core
// leaves this golden untouched; one that intends to change timing
// regenerates it with -update and says so.
func TestGridStatsGolden(t *testing.T) {
	var mu sync.Mutex
	got := map[string]string{}
	t.Run("grid", func(t *testing.T) {
		for _, w := range workload.All() {
			for _, budget := range []prog.RegBudget{prog.Budget32, prog.Budget8} {
				w, budget := w, budget
				name := fmt.Sprintf("%s/%d-%d", w.Name, budget.Int, budget.FP)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					p, err := w.Build(budget, workload.ScaleTest)
					if err != nil {
						t.Fatal(err)
					}
					for _, design := range tlb.DesignOrder {
						for _, inOrder := range []bool{false, true} {
							for _, page := range []uint64{4096, 8192} {
								cfg := DefaultConfig()
								cfg.InOrder = inOrder
								cfg.PageSize = page
								cfg.MaxInsts = gridMaxInsts
								m, err := NewWithDesign(p, cfg, design)
								if err != nil {
									t.Fatal(err)
								}
								if err := m.Run(); err != nil {
									t.Fatalf("%s inorder=%v page=%d: %v", design, inOrder, page, err)
								}
								issue := "ooo"
								if inOrder {
									issue = "inorder"
								}
								key := fmt.Sprintf("%s %s %s %dK", name, design, issue, page/1024)
								fp := statsFingerprint(m)
								mu.Lock()
								got[key] = fp
								mu.Unlock()
							}
						}
					}
				})
			}
		}
	})
	if t.Failed() {
		return
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, got[k])
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(gridGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(gridGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(gridGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	gotLines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("grid has %d cells, golden has %d", len(gotLines), len(wantLines))
	}
	bad := 0
	for i := range wantLines {
		if wantLines[i] != gotLines[i] {
			if bad < 10 {
				t.Errorf("stats differ: got %q, golden %q", gotLines[i], wantLines[i])
			}
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d grid cells changed their statistics", bad, len(gotLines))
	}
}
