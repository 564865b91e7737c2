package dist

// The multi-process runtime's own tests. The test binary doubles as the
// worker executable: TestMain calls MaybeWorker first, so when the
// coordinator re-executes this binary with the worker environment set, it
// becomes a shard worker instead of running the tests. These tests inject
// no faults: how a faulted run ends — outcome, census, exactly-once
// delivery, no leaked goroutine or process — is
// validate.TestSchedulerConformance's table, and that seeded process fault
// plans reproduce the oracle's violation set over hash and range shards is
// validate.TestMetamorphicVioUnderFaults'. Both run in internal/validate's
// test binary, which faults a worker's pipes from outside.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"gfd/internal/core"
	"gfd/internal/fragment"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/store"
	"gfd/internal/validate"
)

var fxDir string

func TestMain(m *testing.M) {
	MaybeWorker()
	// The suite's fixtures are small graphs: chunks of one class member
	// give their plans the long slot queues that the dispatch window's
	// bounds are written against.
	restore := validate.SetChunkGranularity(1024, 1)
	code := m.Run()
	restore()
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

func distOpt(f *fixture) validate.Options {
	return validate.Options{
		Dist: &validate.DistOptions{
			ManifestPath:      f.manifest,
			HeartbeatInterval: 50 * time.Millisecond,
			HandshakeTimeout:  2 * time.Second,
		},
	}
}

// TestDistFaultFree: the multi-process run over mmap'd shards reproduces
// the in-process fault-free violation set exactly, with a complete census
// and zero snapshot builds in the coordinator (the cold-start guarantee:
// plans and halos come from the already-frozen snapshot).
func TestDistFaultFree(t *testing.T) {
	f := setup(t)
	before := f.g.SnapshotBuilds()
	res, err := DetectB(context.Background(), f.b, distOpt(f), nil)
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
	res, err = DetectB(context.Background(), validate.NewBundle(cold, f.set), distOpt(f), nil)
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

// TestDistStripesAcrossProcesses: at θ = 4 units split into stripes, and LPT
// deals the stripes of one unit to different worker processes. Their match
// sets partition the unit's only if every process filters the same node — a
// function of the group pattern alone — so the violation set must equal the
// sequential engine's byte for byte. It runs on the fixture's rules and on
// their constant-X subset, whose every group pivots on a seeded node: the
// workers rebuild those seeded groups from the shipped rules, and every
// process must pass the handshake's group-count check and run its share.
func TestDistStripesAcrossProcesses(t *testing.T) {
	f := setup(t)
	var seeded []*core.GFD
	for _, r := range f.set.Rules() {
		if len(r.Q.Components()) == 1 && slices.ContainsFunc(r.X, func(l core.Literal) bool { return l.Kind == core.Constant }) {
			seeded = append(seeded, r)
		}
	}
	if len(seeded) == 0 {
		t.Fatal("the fixture has no constant-X rule")
	}
	for name, b := range map[string]*validate.Bundle{
		"fixture":   f.b,
		"constantX": validate.NewBundle(f.g, core.MustNewSet(seeded...)),
	} {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			seq := validate.NewCollectSink(1)
			if err := validate.DetVioB(ctx, b, seq); err != nil {
				t.Fatal(err)
			}
			want := seq.Report()
			opt := distOpt(f)
			opt.SplitThreshold = 4
			ready := 0
			res, s, err := detectSpied(ctx, b, opt, nil, func(fl *fleet) {
				for w := range fl.procs {
					if fl.procs[w].ready {
						ready++
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Violations.Equal(want) {
				t.Fatalf("striped dist run found %d violations, the sequential engine %d", len(res.Violations), len(want))
			}
			if ready != fxWorkers || res.Completeness.WorkerDeaths != 0 {
				t.Fatalf("%d of %d processes completed the handshake, %d died", ready, fxWorkers, res.Completeness.WorkerDeaths)
			}
			// Some unit must have had its stripes run in two different processes.
			slots := map[string]map[int]bool{} // unstriped unit -> slots running its stripes
			for w, q := range s.queues {
				for _, ui := range q {
					if u := s.fleet.plan.Unit(ui); u.StripeMod > 0 {
						key := fmt.Sprint(u.Group, u.Ranges)
						if slots[key] == nil {
							slots[key] = map[int]bool{}
						}
						slots[key][w] = true
					}
				}
			}
			spread := 0
			for _, ws := range slots {
				if len(ws) > 1 {
					spread++
				}
			}
			t.Logf("%d units, %d stripes, %d units striped across processes, %d violations", res.Units, res.SplitUnits, spread, len(want))
			if res.SplitUnits == 0 || spread == 0 {
				t.Fatalf("%d stripes, %d units with stripes in more than one process: the test is vacuous", res.SplitUnits, spread)
			}
		})
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
		proto: protoVersion, worker: 3, numNodes: 1 << 20,
		heartbeat: 125 * time.Millisecond, combine: true,
		shardPath: "/tmp/δ shard.0.gfds", rules: "rule text\nwith lines", groups: 5,
	}
	h2, err := decodeHello(encodeHello(h))
	if err != nil || h2 != h {
		t.Fatalf("hello round-trip: %+v -> %+v (%v)", h, h2, err)
	}

	a := assignMsg{
		unit: validate.Unit{ID: 9, Group: 2, Ranges: []validate.Range{{Lo: 1, Hi: 99}, {Lo: 0, Hi: 4096}},
			StripeMod: 3, StripeRem: 1},
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
	if a2.unit.ID != a.unit.ID || a2.skip != a.skip || !slices.Equal(a2.unit.Ranges, a.unit.Ranges) || len(a2.halo) != 2 ||
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

	d := doneMsg{unit: 8, wall: 42 * time.Millisecond}
	if d2, err := decodeDone(encodeDone(nil, d)); err != nil || d2 != d {
		t.Fatalf("done round-trip: %+v (%v)", d2, err)
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
