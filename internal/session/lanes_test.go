package session

import (
	"context"
	"os"
	"sync"
	"testing"

	"gfd/internal/dist"
	"gfd/internal/fragment"
	"gfd/internal/gen"
	"gfd/internal/validate"
)

// The test binary doubles as the distributed engine's worker executable.
func TestMain(m *testing.M) {
	dist.MaybeWorker()
	os.Exit(m.Run())
}

// laneRecorder notes which lanes a run emits on.
type laneRecorder struct {
	mu    sync.Mutex
	lanes map[int]int
}

func (r *laneRecorder) Emit(worker int, _ validate.Violation) {
	r.mu.Lock()
	r.lanes[worker]++
	r.mu.Unlock()
}

// TestLanesFollowTheManifest: the shard manifest fixes the distributed
// engine's worker count, whatever Options.N says: with 8 shards and the
// default N = 4, slots 4–7 emit too, and the stream, whose one channel is
// sized off Options.N, still yields Detect's set.
func TestLanesFollowTheManifest(t *testing.T) {
	const shards = 8
	// Fine chunks, so that the small graph's plan reaches every slot.
	t.Cleanup(validate.SetChunkGranularity(64, 16))
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 400, Seed: 9})
	set := gen.MineGFDs(g, gen.MineConfig{NumRules: 6, PatternSize: 4, TwoCompFrac: 0.3, Seed: 13})
	if set.Len() == 0 {
		t.Fatal("no rules mined")
	}
	gen.Inject(g, gen.NoiseConfig{Rate: 0.4, Seed: 11})
	manifest, err := dist.WriteShards(g.Freeze(), shards, fragment.Hash, t.TempDir(), "lanes")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := sess.Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	opt := validate.Options{Engine: validate.EngineDistributed, Dist: &validate.DistOptions{ManifestPath: manifest}}
	if n := opt.Normalized().N; n >= shards {
		t.Fatalf("default N = %d does not undercut %d shards; the test is vacuous", n, shards)
	}

	rec := &laneRecorder{lanes: make(map[int]int)}
	res, err := prep.run(context.Background(), opt, rec)
	if err != nil {
		t.Fatal(err)
	}
	high := 0
	for lane, n := range rec.lanes {
		if lane < 0 || lane >= shards {
			t.Fatalf("%d violations emitted on lane %d, outside the %d shards", n, lane, shards)
		}
		if lane >= opt.Normalized().N {
			high++
		}
	}
	if high == 0 {
		t.Fatalf("no slot beyond Options.N emitted (lanes used: %v); nothing distinguishes the sizing", rec.lanes)
	}

	// And the iterator itself, end to end, over those lanes.
	want, err := prep.Detect(context.Background(), validate.Options{Engine: validate.EngineSequential})
	if err != nil {
		t.Fatal(err)
	}
	var got validate.Report
	for v, err := range prep.Violations(context.Background(), opt) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, v)
	}
	got.Sort()
	if !got.Equal(want.Violations) || res.Completeness.Units == 0 {
		t.Fatalf("distributed stream over %d shards diverged: %d vs %d violations", shards, len(got), len(want.Violations))
	}
}

// TestSequentialStreamOneLane: detVio emits on lane 0 only, so its pull
// pipeline sizes its channel for one slot whatever Options.N says, as its
// collect mode opens one lane; the stream still yields Detect's set.
func TestSequentialStreamOneLane(t *testing.T) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 400, Seed: 9})
	set := gen.MineGFDs(g, gen.MineConfig{NumRules: 6, PatternSize: 4, TwoCompFrac: 0.3, Seed: 13})
	gen.Inject(g, gen.NoiseConfig{Rate: 0.4, Seed: 11})
	sess, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := sess.Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	opt := validate.Options{Engine: validate.EngineSequential, N: 4}
	if lanes := prep.slots(opt); lanes != 1 {
		t.Fatalf("slots = %d; detVio emits on one lane", lanes)
	}
	want, err := prep.Detect(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	var got validate.Report
	var res validate.Result
	for v, err := range prep.ViolationsResult(context.Background(), opt, &res) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, v)
	}
	got.Sort()
	if len(want.Violations) == 0 || !got.Equal(want.Violations) {
		t.Fatalf("one-lane stream: %d violations, Detect %d", len(got), len(want.Violations))
	}
}
