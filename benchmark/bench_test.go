package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"gfd"
)

// TestMain lets the test binary stand in for the benchmark binary: drive
// re-executes os.Executable() for the setup and measure phases, and the
// distributed engine re-executes it as its workers.
func TestMain(m *testing.M) {
	gfd.MaybeWorker()
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// benchmarkJSON mirrors the contract's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// benchmarkJSONBytes is read before any test changes directory.
var benchmarkJSONBytes, benchmarkJSONErr = os.ReadFile(filepath.Join("..", "BENCHMARK.json"))

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	if benchmarkJSONErr != nil {
		t.Fatal(benchmarkJSONErr)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(benchmarkJSONBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON checks the description against the program: the same
// workloads with the same reasons, the same per-layer metric list, names
// and units inside the contract's alphabet, bounds inside its cap.
func TestBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads described, %d implemented", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || (better != "lower" && better != "higher") {
			t.Errorf("metric %q unit %q better %q breaks the contract's alphabet", name, unit, better)
		}
		if seen[name] {
			t.Errorf("metric %q is declared twice", name)
		}
		seen[name] = true
	}
	hasSetup := false
	for _, m := range bj.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics described, %d implemented", len(bj.PerLayer), len(layerMetrics))
	}
	for i, m := range bj.PerLayer {
		check(m.Name, m.Unit, m.Better)
		if lm := layerMetrics[i]; m.Name != lm.name || m.Unit != lm.unit || m.Better != lm.better {
			t.Errorf("per_layer[%d]: BENCHMARK.json has %+v, program has %+v", i, m, lm)
		}
	}
}

const toyScale = 0.02

// toyRun drives one workload at toy scale and returns the fingerprint line
// and the parsed result object.
func toyRun(t *testing.T, workload string, trace int) (string, result) {
	t.Helper()
	var out bytes.Buffer
	err := drive(findWorkload(workload), config{seed: 7, seconds: 0.4, trace: trace, scale: toyScale}, &out)
	if err != nil {
		t.Fatalf("%s trace=%d: %v\n%s", workload, trace, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", workload, err)
	}
	return lines[0], res
}

// TestToyScale runs all five workloads at toy scale, measured and traced,
// twice each: every metric BENCHMARK.json names is emitted exactly once with
// its unit, no op fails, and the exact counts repeat.
func TestToyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	t.Chdir(t.TempDir()) // the benchmark writes under .bench_build of its working directory
	bj := loadBenchmarkJSON(t)
	exact := []string{"match.matches", "validate.units", "validate.groups", "workload.pivot_candidates", "graph.snapshot_builds", "dist.frames"}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			want := map[string]string{}
			if trace == 0 {
				for _, m := range bj.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bj.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			fp1, r1 := toyRun(t, w.name, trace)
			fp2, r2 := toyRun(t, w.name, trace)
			if fp1 != fp2 {
				t.Errorf("%s: fingerprints differ between two runs:\n%s\n%s", w.name, fp1, fp2)
			}
			for _, r := range []result{r1, r2} {
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("%s trace=%d: correct=%t attempted=%d failed=%d", w.name, trace, r.Correct, r.Attempted, r.Failed)
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%s trace=%d: %d metrics emitted, %d declared", w.name, trace, len(r.Metrics), len(want))
				}
				for name, unit := range want {
					if got, ok := r.Metrics[name]; !ok || got.Unit != unit {
						t.Errorf("%s trace=%d: metric %s: got %+v, want unit %s", w.name, trace, name, got, unit)
					}
				}
			}
			if trace == 1 {
				for _, name := range exact {
					if a, b := r1.Metrics[name].Value, r2.Metrics[name].Value; a != b {
						t.Errorf("%s: count %s does not repeat: %g then %g", w.name, name, a, b)
					}
				}
			}
		}
	}
}

// TestCorruptOracle: a wrong oracle must fail every op and the run.
func TestCorruptOracle(t *testing.T) {
	dir := t.TempDir()
	w := findWorkload("cyc_clean_seq")
	if err := runSetup(w, 7, toyScale, warmupOps+2, 2, dir); err != nil {
		t.Fatal(err)
	}
	var or oracle
	if err := readJSON(filepath.Join(dir, oracleFile), &or); err != nil {
		t.Fatal(err)
	}
	or.Vio.Hash++
	if err := writeJSON(filepath.Join(dir, oracleFile), or); err != nil {
		t.Fatal(err)
	}
	a, err := loadArtifacts(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runLoop(w, a, 2, nil); err == nil {
		t.Fatal("a corrupted oracle passed the warm-up ops")
	}
}

// TestSetupDeterministic: the same (workload, seed) writes the same bytes,
// and another seed writes different ones.
func TestSetupDeterministic(t *testing.T) {
	digest := func(name string, seed int64) string {
		dir := t.TempDir()
		if err := runSetup(findWorkload(name), seed, toyScale, warmupOps+4, 2, dir); err != nil {
			t.Fatal(err)
		}
		d, err := digestDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for _, w := range workloads {
		a, b, c := digest(w.name, 7), digest(w.name, 7), digest(w.name, 8)
		if a != b {
			t.Errorf("%s: two setups of seed 7 differ", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 wrote the same bytes", w.name)
		}
	}
}
