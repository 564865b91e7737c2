package exp

import (
	"strings"
	"testing"
)

// TestWorkloadSweepFreezesOnce is the session-reuse acceptance probe: an
// entire sweep — every worker count and all six algorithm variants, twice
// — performs exactly one Freeze and one rule lowering on the workload's
// graph version. Before the session API each RunAlgorithm call re-derived
// reduction, grouping and (on mutated graphs) the snapshot.
func TestWorkloadSweepFreezesOnce(t *testing.T) {
	w := Prepare(small())
	// Prepare performed the one freeze of the noisy graph version (mining
	// froze the pre-noise version separately); the sweep must add zero.
	base := w.G.SnapshotBuilds()
	if base < 1 {
		t.Fatalf("workload preparation performed %d snapshot builds, want >= 1", base)
	}
	syms := w.G.Freeze().Syms()
	progs := make(map[string]any, w.Set.Len())
	for _, f := range w.Set.Rules() {
		progs[f.Name] = f.ProgramFor(syms)
	}

	for round := 0; round < 2; round++ {
		for _, n := range []int{2, 4} {
			for _, alg := range SixAlgorithms {
				if res := RunAlgorithm(alg, w, n, 3); res == nil {
					t.Fatalf("%s/n=%d returned nil", alg, n)
				}
			}
		}
	}

	if builds := w.G.SnapshotBuilds() - base; builds != 0 {
		t.Errorf("sweep performed %d extra snapshot builds, want 0 (one freeze per graph version)", builds)
	}
	// One lowering per rule: the per-rule program cache still holds the
	// artifact compiled at prepare time — nothing inside the sweep evicted
	// it by lowering against a different symbol table.
	for _, f := range w.Set.Rules() {
		if got := f.ProgramFor(syms); got != progs[f.Name] {
			t.Errorf("rule %s was re-lowered during the sweep", f.Name)
		}
	}
}

// Small-scale smoke reproductions: the bench harness runs these sweeps at
// full scale; here the *shapes* are asserted on reduced workloads.

func small() Config {
	return Config{Scale: 120, Rules: 5, PatternSize: 4, Seed: 3}
}

func TestFig5VaryNShape(t *testing.T) {
	tab := Fig5VaryN(small(), []int{2, 8})
	if len(tab.Rows) != 2 || len(tab.Series) != 6 {
		t.Fatalf("table shape: %d rows, %d series", len(tab.Rows), len(tab.Series))
	}
	// Modeled parallel time must not grow with workers (it is max worker
	// busy + comm; small fixed comm noise gets slack). Real speedup
	// factors are measured by the bench harness at full scale.
	for _, alg := range []string{"repVal", "disVal"} {
		t2, _ := tab.Get("2", alg)
		t8, _ := tab.Get("8", alg)
		if t8 > t2*1.5+0.005 {
			t.Errorf("%s: modeled time grew with workers: %v -> %v", alg, t2, t8)
		}
	}
	if s := tab.String(); !strings.Contains(s, "repVal") || !strings.Contains(s, "n") {
		t.Error("table rendering broken")
	}
}

// TestSweepPrintsWallBesideSpan: every plotted cell of a span table
// carries the measured wall, and the rendering says which is which.
func TestSweepPrintsWallBesideSpan(t *testing.T) {
	tab := Fig5VaryN(small(), []int{2})
	for _, alg := range tab.Series {
		if w := tab.Rows[0].Wall[alg]; w <= 0 {
			t.Errorf("%s: measured wall %v, want > 0", alg, w)
		}
	}
	if s := tab.String(); !strings.Contains(s, spanNote) || !strings.Contains(s, ") ") {
		t.Errorf("rendering lacks the span caption or the wall column:\n%s", s)
	}
}

func TestFig5VarySigmaGrows(t *testing.T) {
	tab := Fig5VarySigma(small(), []int{2, 6})
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// More rules => at least as much total work for the sequential-ish
	// weight; assert on the workload proxy rather than noisy wall time.
	if tab.Rows[0].X >= tab.Rows[1].X && tab.Rows[0].X != tab.Rows[1].X {
		t.Errorf("rule counts not increasing: %s then %s", tab.Rows[0].X, tab.Rows[1].X)
	}
}

func TestFig5CommOnlyDisAlgorithms(t *testing.T) {
	tab := Fig5Comm(small(), []int{2, 4})
	if len(tab.Series) != 3 {
		t.Fatalf("series = %v", tab.Series)
	}
	for _, r := range tab.Rows {
		for alg, v := range r.Cells {
			if v < 0 {
				t.Errorf("%s: negative comm time", alg)
			}
		}
	}
}

func TestFig6ScaleGrows(t *testing.T) {
	c := small()
	c.Scale = 40
	tab := Fig6ScaleG(c, []int{1, 3})
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Bigger graphs take longer for disVal (allow generous noise slack).
	v1 := tab.Rows[0].Cells["disVal"]
	v3 := tab.Rows[1].Cells["disVal"]
	if v3 < v1*0.5 {
		t.Errorf("3x graph faster than 1x: %v vs %v", v3, v1)
	}
}

func TestFig7AllErrorsCaught(t *testing.T) {
	findings := Fig7RealLife(200, 4, 7)
	if len(findings) != 3 {
		t.Fatalf("findings = %d", len(findings))
	}
	for _, f := range findings {
		if f.Injected == 0 {
			t.Errorf("%s: nothing injected", f.Rule)
			continue
		}
		if f.Caught < f.Injected {
			t.Errorf("%s: caught %d of %d injected errors", f.Rule, f.Caught, f.Injected)
		}
		if f.Violations == 0 {
			t.Errorf("%s: no violations reported", f.Rule)
		}
	}
}

func TestFig9AccuracyShape(t *testing.T) {
	c := small()
	c.Rules = 8
	c.NoiseRate = 0.05
	rows := Fig9Accuracy(c)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byModel := make(map[string]AccuracyRow)
	for _, r := range rows {
		byModel[r.Model] = r
	}
	gfdRow, gcfd, bd := byModel["GFD"], byModel["GCFD"], byModel["BigDansing"]
	// The paper's shape: GFD recall >= GCFD recall (GCFD drops non-path
	// rules), and GFD == BigDansing accuracy (same rules).
	if gfdRow.Recall < gcfd.Recall {
		t.Errorf("GFD recall %v below GCFD %v", gfdRow.Recall, gcfd.Recall)
	}
	if gfdRow.Recall != bd.Recall || gfdRow.Precision != bd.Precision {
		t.Errorf("BigDansing accuracy must equal GFD: (%v,%v) vs (%v,%v)",
			bd.Recall, bd.Precision, gfdRow.Recall, gfdRow.Precision)
	}
	if gcfd.Rules >= gfdRow.Rules {
		t.Errorf("GCFD must drop rules: %d vs %d", gcfd.Rules, gfdRow.Rules)
	}
	if gfdRow.Recall <= 0 {
		t.Error("GFD must catch something at 5% noise")
	}
}

func TestSpeedupSummary(t *testing.T) {
	tab := Table{
		Series: []string{"a"},
		Rows: []Row{
			{X: "4", Cells: map[string]float64{"a": 8}},
			{X: "20", Cells: map[string]float64{"a": 2}},
		},
	}
	s := SpeedupSummary(tab)
	if s["a"] != 4 {
		t.Errorf("speedup = %v", s["a"])
	}
	if SpeedupSummary(Table{}) != nil {
		t.Error("empty table has no speedups")
	}
}

func TestPrepareDeterministic(t *testing.T) {
	a := Prepare(small())
	b := Prepare(small())
	if a.G.NumNodes() != b.G.NumNodes() || a.Set.Len() != b.Set.Len() {
		t.Error("Prepare must be deterministic")
	}
}
