package dist

// The dist chaos differential suite. The test binary doubles as the worker
// executable: TestMain calls MaybeWorker first, so when the coordinator
// re-executes this binary with the worker environment set, it becomes a
// shard worker instead of running the tests. Every recoverable process
// fault plan must leave the violation set byte-identical to the in-process
// fault-free run over the same partition; unrecoverable plans must return
// ErrPartial with an honest census, and never hang or leak processes.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"gfd/internal/cluster"
	"gfd/internal/core"
	"gfd/internal/fault"
	"gfd/internal/fragment"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/store"
	"gfd/internal/validate"
)

var fxDir string

func TestMain(m *testing.M) {
	MaybeWorker()
	code := m.Run()
	if fxDir != "" {
		os.RemoveAll(fxDir)
	}
	os.Exit(code)
}

const fxWorkers = 4

type fixture struct {
	g        *graph.Graph
	set      *core.Set
	b        *validate.Bundle
	manifest string
	base     validate.Report // fault-free in-process reference
	err      error
}

var (
	fx     fixture
	fxOnce sync.Once
)

// setup builds the shared workload once: a noisy generated graph, mined
// rules, persisted shards + manifest, and the in-process fault-free
// reference violation set over the identical hash partition.
func setup(t *testing.T) *fixture {
	t.Helper()
	fxOnce.Do(func() {
		dir, err := os.MkdirTemp("", "gfd-dist-test-")
		if err != nil {
			fx.err = err
			return
		}
		fxDir = dir
		fx = buildFixture(400, dir)
	})
	if fx.err != nil {
		t.Fatal(fx.err)
	}
	return &fx
}

// buildFixture is the fixture recipe at a given dataset scale, its shards
// written under dir.
func buildFixture(scale int, dir string) fixture {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: scale, Seed: 9})
	set := gen.MineGFDs(g, gen.MineConfig{NumRules: 6, PatternSize: 4, TwoCompFrac: 0.3, Seed: 13})
	if set.Len() == 0 {
		return fixture{err: errors.New("no rules mined")}
	}
	gen.Inject(g, gen.NoiseConfig{Rate: 0.4, Seed: 11})
	mp, err := WriteShards(g.Freeze(), fxWorkers, fragment.Hash, dir, "fx")
	if err != nil {
		return fixture{err: err}
	}
	b := validate.NewBundle(g, set)
	ref, err := validate.DisValB(context.Background(), b,
		fragment.Partition(g, fxWorkers, fragment.Hash), validate.Options{N: fxWorkers}, nil)
	if err != nil {
		return fixture{err: err}
	}
	if len(ref.Violations) == 0 {
		return fixture{err: errors.New("workload produced no violations; differentials would be vacuous")}
	}
	return fixture{g: g, set: set, b: b, manifest: mp, base: ref.Violations}
}

func distOpt(f *fixture, plan *fault.Plan) validate.Options {
	return validate.Options{
		Inject: plan,
		Dist: &validate.DistOptions{
			ManifestPath: f.manifest,
			// Tight supervision keeps injected 30s pipe stalls (killed via
			// heartbeat starvation) from dominating the suite's runtime.
			HeartbeatInterval: 50 * time.Millisecond,
			HandshakeTimeout:  2 * time.Second,
		},
	}
}

// TestDistFaultFree: the multi-process run over mmap'd shards reproduces
// the in-process fault-free violation set exactly, with a complete census
// and zero snapshot builds in the coordinator (the cold-start guarantee:
// plans and halos come from the already-frozen snapshot; nothing thaws).
func TestDistFaultFree(t *testing.T) {
	f := setup(t)
	before := f.g.SnapshotBuilds()
	res, err := DetectB(context.Background(), f.b, distOpt(f, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violations.Equal(f.base) {
		t.Fatalf("violation set diverged from in-process run (%d vs %d)",
			len(res.Violations), len(f.base))
	}
	c := res.Completeness
	if !c.Complete() || c.Failed != 0 || c.WorkerDeaths != 0 {
		t.Fatalf("fault-free census not clean: %+v", c)
	}
	if got := f.g.SnapshotBuilds(); got != before {
		t.Fatalf("coordinator built %d snapshots during a dist run, want 0", got-before)
	}
	if res.BytesShipped == 0 || res.Messages == 0 {
		t.Fatalf("no shipment accounted: bytes=%d msgs=%d", res.BytesShipped, res.Messages)
	}
	if res.DetectSpan <= 0 {
		t.Fatalf("modeled detection span not measured: %v", res.DetectSpan)
	}

	// Cold, as gfdcheck -mode dist runs it: the coordinator's graph is
	// adopted from a mapped .gfds, so any build at all breaks the contract.
	path := t.TempDir() + "/full.gfds"
	if err := store.Save(context.Background(), f.g.Freeze(), path); err != nil {
		t.Fatal(err)
	}
	l, err := store.Open(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cold := l.Snapshot().Graph()
	res, err = DetectB(context.Background(), validate.NewBundle(cold, f.set), distOpt(f, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violations.Equal(f.base) {
		t.Fatalf("cold-coordinator run diverged (%d vs %d violations)", len(res.Violations), len(f.base))
	}
	if got := cold.SnapshotBuilds(); got != 0 {
		t.Fatalf("mmap-adopted coordinator built %d snapshots, want 0", got)
	}
}

// TestDistChaosDifferential sweeps seed-derived recoverable process fault
// plans — SIGKILLed workers, stalled pipes starving heartbeats, frames
// torn mid-write — and requires every run to recover to exactly the
// fault-free violation set with a complete census.
func TestDistChaosDifferential(t *testing.T) {
	f := setup(t)
	ctx := context.Background()
	activity := 0
	for seed := int64(1); seed <= 6; seed++ {
		plan := fault.FromSeedProc(seed, fxWorkers, 64)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			res, err := DetectB(ctx, f.b, distOpt(f, plan), nil)
			if err != nil {
				t.Fatalf("%v: %v", plan, err)
			}
			if !res.Violations.Equal(f.base) {
				t.Fatalf("%v: violation set diverged from fault-free run (%d vs %d)",
					plan, len(res.Violations), len(f.base))
			}
			c := res.Completeness
			if !c.Complete() || c.Failed != 0 {
				t.Fatalf("%v: census not complete: %+v", plan, c)
			}
			activity += c.Retries + c.WorkerDeaths
		})
	}
	if activity == 0 {
		t.Error("no process fault fired across the whole sweep — every differential was vacuous")
	}
}

// TestDistTruncatedFrameExactlyOnce pins the retry dedupe across a torn
// frame: a worker that dies mid-write of its 4th outbound frame (likely a
// violation batch) loses that frame, and the retried unit must re-deliver
// exactly the missing violations — no duplicates, no gaps.
func TestDistTruncatedFrameExactlyOnce(t *testing.T) {
	f := setup(t)
	plan := fault.NewPlan(11).TruncateMessage(2, 3)
	res, err := DetectB(context.Background(), f.b, distOpt(f, plan), nil)
	if err != nil {
		t.Fatalf("%v: %v", plan, err)
	}
	if !res.Violations.Equal(f.base) {
		t.Fatalf("%v: set diverged after torn frame (%d vs %d) — duplicate or lost emissions",
			plan, len(res.Violations), len(f.base))
	}
	if res.Completeness.WorkerDeaths == 0 {
		t.Fatalf("%v: truncation never killed the worker: %+v", plan, res.Completeness)
	}
}

// TestDistUnrecoverablePartial: a process kill with retries and respawn
// both disabled abandons exactly the in-flight unit — the run returns
// ErrPartial wrapping a *cluster.WorkerError, the census says one failed
// unit and one death, and every reported violation is real (a subset of
// the fault-free set).
func TestDistUnrecoverablePartial(t *testing.T) {
	f := setup(t)
	plan := fault.NewPlan(7).KillProcess(1, 0)
	opt := distOpt(f, plan)
	opt.Retry = validate.Retry{Max: -1}
	opt.Dist.MaxRespawns = -1
	res, err := DetectB(context.Background(), f.b, opt, nil)
	if !errors.Is(err, validate.ErrPartial) {
		t.Fatalf("%v: err = %v, want ErrPartial", plan, err)
	}
	var pe *validate.PartialError
	if !errors.As(err, &pe) || len(pe.Failures) != 1 {
		t.Fatalf("%v: err = %v, want *PartialError with exactly 1 failure", plan, err)
	}
	if pe.Failures[0].Attempts != 1 {
		t.Fatalf("%v: failed unit consumed %d attempts with retries disabled", plan, pe.Failures[0].Attempts)
	}
	var we *cluster.WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("%v: failure does not unwrap to a *cluster.WorkerError: %v", plan, err)
	}
	c := res.Completeness
	if c.WorkerDeaths != 1 || c.Failed != 1 || c.Succeeded != c.Units-1 {
		t.Fatalf("%v: census wrong for one dead process: %+v", plan, c)
	}
	seen := make(map[string]bool, len(f.base))
	for _, v := range f.base {
		seen[fmt.Sprint(v.Rule, v.Match)] = true
	}
	for _, v := range res.Violations {
		if !seen[fmt.Sprint(v.Rule, v.Match)] {
			t.Fatalf("%v: partial run reported a violation absent from the fault-free set: %v", plan, v)
		}
	}
}

// TestDistDegradeSpawnFailure: when no worker process can be started at
// all, the engine degrades to the in-process fragmented engine over the
// same partition and still produces the full violation set.
func TestDistDegradeSpawnFailure(t *testing.T) {
	f := setup(t)
	opt := distOpt(f, nil)
	opt.Dist.Command = []string{"/nonexistent/gfd-dist-worker"}
	res, err := DetectB(context.Background(), f.b, opt, nil)
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	if !res.Violations.Equal(f.base) {
		t.Fatalf("degraded run diverged (%d vs %d)", len(res.Violations), len(f.base))
	}
	if !res.Completeness.Complete() {
		t.Fatalf("degraded census not complete: %+v", res.Completeness)
	}
}

// TestDistDegradeAllDeadNoProgress: every worker killed on its first unit
// before anything was delivered, with respawn disabled — nothing useful
// happened, so instead of reporting total failure the engine falls back
// in-process and completes.
func TestDistDegradeAllDeadNoProgress(t *testing.T) {
	f := setup(t)
	plan := fault.NewPlan(3)
	for w := 0; w < fxWorkers; w++ {
		plan.KillProcess(w, 0)
	}
	opt := distOpt(f, plan)
	opt.Dist.MaxRespawns = -1
	res, err := DetectB(context.Background(), f.b, opt, nil)
	if err != nil {
		t.Fatalf("%v: total-loss run did not degrade: %v", plan, err)
	}
	if !res.Violations.Equal(f.base) {
		t.Fatalf("%v: degraded run diverged (%d vs %d)", plan, len(res.Violations), len(f.base))
	}
}

// TestDistStreamStop: a sink refusing the first violation stops the run
// promptly and cleanly — no error, no hung coordinator, and the worker
// fleet is torn down without stranding goroutines.
func TestDistStreamStop(t *testing.T) {
	f := setup(t)
	before := runtime.NumGoroutine()
	n := 0
	_, err := DetectB(context.Background(), f.b, distOpt(f, nil),
		validate.Callback(func(validate.Violation) bool {
			n++
			return false
		}))
	if err != nil {
		t.Fatalf("stopped run returned %v", err)
	}
	if n != 1 {
		t.Fatalf("sink called %d times after refusing", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:m])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDistCancellation: a context cancelled mid-run surfaces its error
// and reaps the fleet instead of hanging.
func TestDistCancellation(t *testing.T) {
	f := setup(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := DetectB(ctx, f.b, distOpt(f, nil), nil)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatalf("cancelled run took %v to return", time.Since(start))
	}
}

// TestManifestRoundTrip: WriteShards persists loadable shards whose
// manifest reproduces the exact ownership formula of the in-memory
// partition, and every shard opens over mmap carrying the full node
// count and the global symbol table.
func TestManifestRoundTrip(t *testing.T) {
	f := setup(t)
	m, err := LoadManifest(f.manifest)
	if err != nil {
		t.Fatal(err)
	}
	if m.Workers != fxWorkers || m.NumNodes != f.g.NumNodes() {
		t.Fatalf("manifest shape wrong: %+v", m)
	}
	frag := fragment.Partition(f.g, fxWorkers, fragment.Hash)
	for v := 0; v < m.NumNodes; v++ {
		if got, want := m.Owner(graph.NodeID(v)), frag.Owner[v]; got != want {
			t.Fatalf("manifest owner(%d) = %d, partition says %d", v, got, want)
		}
	}
	full := f.g.Freeze()
	for i, p := range m.Shards {
		loaded, err := store.Open(context.Background(), p)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		snap := loaded.Snapshot()
		if snap.NumNodes() != m.NumNodes {
			t.Fatalf("shard %d holds %d nodes, want %d (full node table)", i, snap.NumNodes(), m.NumNodes)
		}
		if got, want := snap.Syms().Len(), full.Syms().Len(); got != want {
			t.Fatalf("shard %d symbol table has %d codes, full snapshot %d — tables must be global", i, got, want)
		}
		loaded.Close()
	}
	if _, err := LoadManifest(f.manifest + ".missing"); err == nil {
		t.Fatal("loading a missing manifest succeeded")
	}
}

// TestWireRoundTrip exercises the frame codec over awkward payloads:
// empty strings, multi-byte runes, zero-length halo lists, and violation
// matches — everything must survive encode → decode unchanged.
func TestWireRoundTrip(t *testing.T) {
	h := helloMsg{
		proto: protoVersion, worker: 3, workers: 7, numNodes: 1 << 20,
		heartbeat: 125 * time.Millisecond, combine: true, arbPivot: false,
		shardPath: "/tmp/δ shard.0.gfds", rules: "rule text\nwith lines", groups: 5,
	}
	h2, err := decodeHello(encodeHello(h))
	if err != nil || h2 != h {
		t.Fatalf("hello round-trip: %+v -> %+v (%v)", h, h2, err)
	}

	a := assignMsg{
		unit: validate.DistUnit{ID: 9, Group: 2, Candidates: []graph.NodeID{1, 99, 4096},
			StripeMod: 3, StripeRem: 1, BlockSize: 77},
		skip: 12345,
		halo: []haloNode{
			{id: 42, attrs: [][2]string{{"name", "héllo"}, {"", ""}},
				out: []haloEdge{{to: 7, label: "knows"}},
				in:  nil},
			{id: 43},
		},
	}
	a2, err := decodeAssign(encodeAssign(nil, a))
	if err != nil {
		t.Fatalf("assign round-trip: %v", err)
	}
	if a2.unit.ID != a.unit.ID || a2.skip != a.skip || len(a2.halo) != 2 ||
		a2.halo[0].attrs[0][1] != "héllo" || len(a2.halo[0].out) != 1 || len(a2.halo[1].attrs) != 0 {
		t.Fatalf("assign round-trip mangled: %+v", a2)
	}

	v := vioMsg{unit: 4, vios: []validate.Violation{
		{Rule: "r1", Match: core.Match{3, 1, 4}},
		{Rule: "", Match: nil},
	}}
	v2, err := decodeVio(encodeVio(nil, v))
	if err != nil || v2.unit != 4 || len(v2.vios) != 2 ||
		v2.vios[0].Rule != "r1" || len(v2.vios[0].Match) != 3 || v2.vios[0].Match[2] != 4 {
		t.Fatalf("vio round-trip mangled: %+v (%v)", v2, err)
	}

	d := doneMsg{unit: 8, found: 100, delivered: 60, wall: 42 * time.Millisecond}
	if d2, err := decodeDone(encodeDone(nil, d)); err != nil || d2 != d {
		t.Fatalf("done round-trip: %+v (%v)", d2, err)
	}
	c := censusMsg{unitsRun: 17, delivered: 230}
	if c2, err := decodeCensus(encodeCensus(c)); err != nil || c2 != c {
		t.Fatalf("census round-trip: %+v (%v)", c2, err)
	}

	// Corrupt truncations must error, never panic or over-allocate.
	for _, enc := range [][]byte{encodeHello(h), encodeAssign(nil, a), encodeVio(nil, v), encodeDone(nil, d)} {
		for cut := 0; cut < len(enc); cut += 3 {
			decodeHello(enc[:cut])
			decodeAssign(enc[:cut])
			decodeVio(enc[:cut])
			decodeDone(enc[:cut])
		}
	}
}

// TestFaultPlanEncodeRoundTrip: the env-var encoding that ships a plan
// into worker processes reproduces every rule, including the process
// sites, and rejects garbage.
func TestFaultPlanEncodeRoundTrip(t *testing.T) {
	p := fault.NewPlan(99).
		KillProcess(1, 2).
		StallPipe(0, 4, 30*time.Second).
		TruncateMessage(3, 1).
		DelayUnit(7, 2*time.Millisecond).
		KillWorker(2, 0)
	enc := p.Encode()
	q, err := fault.DecodePlan(enc)
	if err != nil {
		t.Fatalf("decoding %q: %v", enc, err)
	}
	if q.Encode() != enc {
		t.Fatalf("re-encode diverged:\n%q\n%q", enc, q.Encode())
	}
	if got, err := fault.DecodePlan(""); got != nil || err != nil {
		t.Fatalf("empty encoding: %v, %v", got, err)
	}
	for _, bad := range []string{"v2;seed=1", "v1;seed=x", "v1;seed=1;bogus,1", "v1;seed=1;kill,1"} {
		if _, err := fault.DecodePlan(bad); err == nil {
			t.Fatalf("decoding %q succeeded", bad)
		}
	}
}
