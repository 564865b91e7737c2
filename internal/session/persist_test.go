// Tests for the session lifecycle over a persisted snapshot: a graph
// adopted from a read-only .gfds mapping must absorb Session.Apply
// batches — including the compactions they trigger — entirely on the
// heap. The mapping is PROT_READ, so a single write through it would
// crash the test; the byte-identical file check closes the remaining
// gap (a rewrite via the path rather than the mapping).
package session_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/incremental"
	"gfd/internal/store"
	"gfd/internal/validate"
)

// TestApplyOverLoadedSnapshotNeverWritesThrough drives the full update
// lifecycle against a loaded snapshot: Prepare and Detect run straight
// off the mapped CSR arrays with zero snapshot builds, then update
// batches large enough to cross the compaction fraction flow through
// Session.Apply, with every batch cross-checked against a cold
// re-frozen session over a clone. At the end the on-disk file must be
// byte-identical to what Save wrote.
func TestApplyOverLoadedSnapshotNeverWritesThrough(t *testing.T) {
	ctx := context.Background()
	src := gen.YAGO2Like(gen.DatasetConfig{Scale: 30, Seed: 8})
	set := gen.MineGFDs(src, gen.MineConfig{NumRules: 4, PatternSize: 3, TwoCompFrac: 0.3, Seed: 9})
	if set.Len() == 0 {
		t.Skip("no rules mined")
	}
	path := filepath.Join(t.TempDir(), "g.gfds")
	if err := store.Save(ctx, src.Freeze(), path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	l, err := store.Open(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	g := l.Snapshot().Graph()
	frozenNodes := g.NumNodes()
	sess := mustOpen(t, g)
	prep, err := sess.Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Detect(ctx, validate.Options{Engine: validate.EngineSequential}); err != nil {
		t.Fatal(err)
	}
	// The cold path to a first violation (gfdcheck -stream over a .gfds)
	// streams straight off the mapped arrays too.
	for _, err := range prep.Violations(ctx, validate.Options{Engine: validate.EngineSequential}) {
		if err != nil {
			t.Fatal(err)
		}
		break
	}
	if got := g.SnapshotBuilds(); got != 0 {
		t.Fatalf("detect and stream over the loaded snapshot built %d snapshots, want 0", got)
	}

	// Update volume sized to cross graph.CompactFraction at least once:
	// each batch adds delta against a base of Size() elements.
	labels := g.Labels()
	rng := rand.New(rand.NewSource(10))
	batch := max(1, g.Size()/8)
	for round := 0; round < 4; round++ {
		var ups []incremental.Update
		for i := 0; i < batch; i++ {
			switch i % 3 {
			case 0:
				// Attribute writes land on nodes whose tuples live in the
				// mapped arena — the case write-through would corrupt.
				ups = append(ups, incremental.SetAttr{
					Node: graph.NodeID(rng.Intn(frozenNodes)), Attr: "val", Value: fmt.Sprintf("w%d", round)})
			case 1:
				ups = append(ups, incremental.AddNode{
					Label: labels[rng.Intn(len(labels))], Attrs: graph.Attrs{"val": fmt.Sprintf("n%d", i)}})
			default:
				from := graph.NodeID(rng.Intn(frozenNodes))
				to := graph.NodeID(rng.Intn(frozenNodes))
				if from != to {
					ups = append(ups, incremental.AddEdge{From: from, To: to, Label: "related_to"})
				}
			}
		}
		sess.Apply(ups...)
		res, err := prep.Detect(ctx, validate.Options{Engine: validate.EngineSequential})
		if err != nil {
			t.Fatal(err)
		}
		// Cold reference: a fresh session over a clone of the mutated
		// graph re-freezes from the heap and must agree.
		refPrep, err := mustOpen(t, g.Clone()).Prepare(set)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refPrep.Detect(ctx, validate.Options{Engine: validate.EngineSequential})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != len(ref.Violations) {
			t.Fatalf("round %d: loaded-graph path found %d violations, re-freeze %d",
				round, len(res.Violations), len(ref.Violations))
		}
		for i := range res.Violations {
			if res.Violations[i].Key() != ref.Violations[i].Key() {
				t.Fatalf("round %d: violation %d differs: %s vs %s",
					round, i, res.Violations[i].Key(), ref.Violations[i].Key())
			}
		}
	}
	// The sweep must have outgrown the base and compacted: compaction is
	// the path that folds mapped arrays into a fresh heap snapshot, and
	// the one this test exists to exercise.
	if got := g.SnapshotBuilds(); got == 0 {
		t.Fatal("update sweep never compacted; grow the batch size so the delta crosses graph.CompactFraction")
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("snapshot file changed on disk: a write reached the mapping")
	}
	// And the file is still openable — the surviving bytes decode to the
	// original graph, not the mutated one.
	l2, err := store.Open(ctx, path)
	if err != nil {
		t.Fatalf("re-open after update sweep: %v", err)
	}
	defer l2.Close()
	if n := l2.Snapshot().NumNodes(); n != frozenNodes {
		t.Fatalf("re-opened snapshot has %d nodes, want the original %d", n, frozenNodes)
	}
}
