// Command benchmark is the repository's one benchmark: five
// disk-to-violations workloads, six gated end-to-end metrics and a traced
// run that gives the per-layer numbers. BENCHMARK.json at the repository
// root describes it; README.md beside this file explains every choice.
//
//	bash benchmark/run.sh --workload kb_cold_rep --seed 1 --seconds 10 --trace 0
//
// One invocation re-executes this binary: setup processes generate and
// persist the workload's artifacts from the seed, and a measure process that
// receives only those artifacts runs the closed loop. The last line of
// standard output is the result object the driver reads.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"time"

	"gfd"
)

// buildDir is where everything the benchmark writes goes, relative to the
// checkout root the command runs from; .gitignore names it.
const buildDir = ".bench_build"

// setupRuns is how many times a measured run sets up; setup_s is the median.
const setupRuns = 5

// childEnv marks a re-executed phase process, so a test binary standing in
// for the benchmark binary knows to run main instead of its tests.
const childEnv = "GFD_BENCHMARK_CHILD"

// fingerprint identifies host and inputs in everything the command prints
// or writes, so results from unlike hosts are never silently compared.
type fingerprint struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Trace      bool    `json:"trace"`
	Ops        int     `json:"ops"`
	WarmupOps  int     `json:"warmup_ops"`
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Commit     string  `json:"commit"`
	Nodes      int     `json:"nodes"`
	Edges      int     `json:"edges"`
	Rules      int     `json:"rules"`
	Oracle     int     `json:"oracle_violations"`
}

func (fp fingerprint) String() string {
	return fmt.Sprintf("workload=%s seed=%d seconds=%g scale=%g trace=%t ops=%d warmup=%d nproc=%d gomaxprocs=%d workers=%d %s %s/%s commit=%s |V|=%d |E|=%d rules=%d oracle=%d",
		fp.Workload, fp.Seed, fp.Seconds, fp.Scale, fp.Trace, fp.Ops, fp.WarmupOps, fp.Nproc, fp.GOMAXPROCS, fp.Workers,
		fp.GoVersion, fp.GOOS, fp.GOARCH, fp.Commit, fp.Nodes, fp.Edges, fp.Rules, fp.Oracle)
}

// commit reads the VCS revision stamped into the binary; a driver checkout
// is not a git repository, so it is usually "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// config is the parsed command line shared by all three phases.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    float64
	phase    string
	dir      string
	ops      int
	workers  int
}

// measureOutput is what the measure process prints for its parent.
type measureOutput struct {
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	FirstError string  `json:"first_error,omitempty"`
	Metrics    metrics `json:"metrics"`
	// Raw holds un-normalised medians and the host factor: printed and
	// filed for the reader, never gated.
	Raw         map[string]float64 `json:"raw,omitempty"`
	Samples     int                `json:"samples"`
	Fingerprint fingerprint        `json:"fingerprint"`
}

// result is the driver-facing object: exactly these four keys.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	gfd.MaybeWorker() // a distributed-engine worker never returns from here

	var c config
	flag.StringVar(&c.workload, "workload", "", "workload name (empty: all five in turn)")
	flag.Int64Var(&c.seed, "seed", 1, "input seed")
	flag.Float64Var(&c.seconds, "seconds", 10, "run length the op counts are sized for")
	flag.IntVar(&c.trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.Float64Var(&c.scale, "scale", 1, "graph size multiplier (tests only; BENCHMARK.json runs at 1)")
	flag.StringVar(&c.phase, "phase", "", "internal: setup | measure")
	flag.StringVar(&c.dir, "dir", "", "internal: artifact directory of a phase")
	flag.IntVar(&c.ops, "ops", 0, "internal: op count of a phase")
	flag.IntVar(&c.workers, "workers", 0, "internal: worker count N of a phase")
	flag.Parse()

	err := run(c, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(c config, out io.Writer) error {
	if c.phase == "" && c.workload == "" {
		for _, w := range workloads {
			if err := drive(w, c, out); err != nil {
				return err
			}
		}
		return nil
	}
	w := findWorkload(c.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", c.workload)
	}
	switch c.phase {
	case "":
		return drive(w, c, out)
	case "setup":
		return runSetup(w, c.seed, c.scale, warmupOps+c.ops, c.workers, c.dir)
	case "measure":
		return runMeasure(w, c, out)
	}
	return fmt.Errorf("unknown phase %q", c.phase)
}

// totalOps is the number of measured ops of a run: the fixed count for the
// run length, or for a traced run a fifth of it traced plus as many
// untraced ops interleaved as the overhead baseline.
func totalOps(w *workload, c config) int {
	n := w.opCount(c.seconds)
	if c.trace != 0 {
		return 2 * max(2, (n+4)/5)
	}
	return n
}

// errIncorrect marks a run that printed its result but failed a check.
var errIncorrect = errors.New("run failed its correctness checks")

// drive is one benchmark invocation for one workload: set up (several times
// when setup_s is reported), measure in a fresh process, print the metrics
// by name and the result object as the last line.
func drive(w *workload, c config, out io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	workers := min(runtime.NumCPU(), 4)
	ops := totalOps(w, c)
	base, err := filepath.Abs(filepath.Join(buildDir, fmt.Sprintf("run-%s-%d-%d", w.name, c.seed, os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	phaseArgs := func(phase, dir string) []string {
		return []string{
			"-phase", phase, "-dir", dir, "-workload", w.name,
			"-seed", strconv.FormatInt(c.seed, 10), "-seconds", fmt.Sprint(c.seconds),
			"-trace", strconv.Itoa(c.trace), "-scale", fmt.Sprint(c.scale),
			"-ops", strconv.Itoa(ops), "-workers", strconv.Itoa(workers),
		}
	}

	// Setup runs in its own process: its wall is setup_s, and its heap
	// stays out of the measure process's memory metrics. Every run must
	// write the same bytes.
	runs := setupRuns
	if c.trace != 0 {
		runs = 1
	}
	var setupWalls, setupNorm []float64
	var digest string
	deterministic := true
	artifactDir := filepath.Join(base, "setup0")
	kernel := newRefKernel()
	before := kernel.run()
	for k := 0; k < runs; k++ {
		dir := filepath.Join(base, fmt.Sprintf("setup%d", k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		cmd := exec.Command(exe, phaseArgs("setup", dir)...)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("setup process: %w", err)
		}
		wall := time.Since(start).Seconds()
		after := kernel.run()
		setupWalls = append(setupWalls, wall)
		setupNorm = append(setupNorm, wall/hostFactor(before, after))
		before = after
		d, err := digestDir(dir)
		if err != nil {
			return err
		}
		if k == 0 {
			digest = d
			continue
		}
		if d != digest {
			deterministic = false
			fmt.Fprintf(os.Stderr, "benchmark: setup run %d wrote different bytes than run 0\n", k)
		}
		os.RemoveAll(dir)
	}

	cmd := exec.Command(exe, phaseArgs("measure", artifactDir)...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("measure process: %w", err)
	}
	var mo measureOutput
	if err := json.Unmarshal(raw, &mo); err != nil {
		return fmt.Errorf("measure process output: %w", err)
	}
	if c.trace == 0 {
		mo.Metrics.set("setup_s", median(setupNorm), "s")
		mo.Raw["raw_setup_s"] = median(setupWalls)
	}

	res := result{
		Correct:   mo.Failed == 0 && deterministic,
		Attempted: mo.Attempted,
		Failed:    mo.Failed,
		Metrics:   mo.Metrics,
	}
	fmt.Fprintln(out, "#", mo.Fingerprint)
	if mo.FirstError != "" {
		fmt.Fprintln(out, "# first failure:", mo.FirstError)
	}
	for _, name := range slices.Sorted(maps.Keys(res.Metrics)) {
		n := mo.Samples
		if name == "setup_s" {
			n = len(setupWalls)
		}
		fmt.Fprintf(out, "%-18s %-36s %14.6g %-8s n=%d\n", w.name, name, res.Metrics[name].Value, res.Metrics[name].Unit, n)
	}
	for _, name := range slices.Sorted(maps.Keys(mo.Raw)) {
		fmt.Fprintf(out, "%-18s %-36s %14.6g (not gated)\n", w.name, name, mo.Raw[name])
	}
	// A result file with the fingerprint and no claim, for later comparison.
	file := filepath.Join(buildDir, fmt.Sprintf("result_%s_seed%d_trace%d.json", w.name, c.seed, c.trace))
	if err := writeJSON(file, map[string]any{"fingerprint": mo.Fingerprint, "result": res, "raw": mo.Raw, "setup_walls_s": setupWalls, "claim": nil}); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// digestDir hashes every file under dir, by sorted relative path.
func digestDir(dir string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), err
}

// runMeasure is the -phase measure process: it receives the artifact
// directory only, runs the closed loop, and prints its numbers as JSON.
func runMeasure(w *workload, c config, out io.Writer) error {
	a, err := loadArtifacts(c.dir)
	if err != nil {
		return fmt.Errorf("load artifacts: %w", err)
	}
	fp := fingerprint{
		Workload: w.name, Seed: a.oracle.Seed, Seconds: c.seconds, Scale: c.scale, Trace: c.trace != 0,
		Ops: c.ops, WarmupOps: warmupOps,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: a.oracle.Workers,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: commit(),
		Nodes: a.oracle.Nodes, Edges: a.oracle.Edges, Rules: a.oracle.Rules, Oracle: a.oracle.Vio.Count,
	}
	var tr *tracer
	if c.trace != 0 {
		tr = newTracer()
	}
	st, err := runLoop(w, a, c.ops, tr)
	if err != nil {
		return err
	}
	var ms metrics
	var raw map[string]float64
	if tr == nil {
		ms, raw = endToEnd(st, a.oracle.Edges)
	} else {
		ms = perLayer(w, a, st, tr, c.seconds) // a failing probe fails the run
		file := filepath.Join(buildDir, fmt.Sprintf("trace_%s.json", w.name))
		if err := tr.writeChrome(file, fp); err != nil {
			return err
		}
	}
	mo := measureOutput{Attempted: st.attempted, Failed: st.failed, Metrics: ms, Raw: raw, Samples: len(st.samples), Fingerprint: fp}
	if st.firstErr != nil {
		mo.FirstError = st.firstErr.Error()
	}
	return json.NewEncoder(out).Encode(mo)
}
