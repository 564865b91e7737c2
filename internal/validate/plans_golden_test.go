package validate_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gfd/internal/core"
	"gfd/internal/fragment"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/pattern"
	"gfd/internal/validate"
)

var update = flag.Bool("update", false, "rewrite testdata/plans.golden from the current planner")

// TestPlansGolden pins the chunk plans of three fixtures under repVal,
// repran, repnop and disVal at N = 4: per unit its group, ranges, stripe,
// weight and star-test survivors per component (and, for disVal, the ship
// bytes per worker); per plan the assignment, split count, total weight
// and makespan. A change that must not move a plan passes it unedited; one
// that does reruns it with -update and says why in its description.
func TestPlansGolden(t *testing.T) {
	validate.SetGranularity(t, 8, 16)
	var buf bytes.Buffer
	for _, fx := range planFixtures() {
		b := validate.NewBundle(fx.g, fx.set)
		frag := fragment.Partition(fx.g, 4, fragment.Hash)
		for _, v := range []struct {
			name string
			opt  validate.Options
			frag *fragment.Fragmentation
		}{
			{"repVal", validate.Options{N: 4, NoReduce: true}, nil},
			{"repran", validate.Options{N: 4, NoReduce: true, RandomAssign: true, Seed: 7}, nil},
			{"repnop", validate.Options{N: 4, NoReduce: true, NoOptimize: true}, nil},
			{"disVal", validate.Options{N: 4, NoReduce: true}, frag},
		} {
			img, err := b.PlanOver(v.opt, v.frag)
			if err != nil {
				t.Fatalf("%s %s: %v", fx.name, v.name, err)
			}
			cands, err := b.PlanCandidates(v.opt)
			if err != nil {
				t.Fatalf("%s %s: %v", fx.name, v.name, err)
			}
			fmt.Fprintf(&buf, "== %s %s: %d units, split %d, total weight %d, makespan %d\n",
				fx.name, v.name, len(img.Units), img.Split, img.TotalWeight, img.Makespan)
			for w, q := range img.Assign {
				fmt.Fprintf(&buf, "worker %d: %v\n", w, q)
			}
			for ui, u := range img.Units {
				fmt.Fprintf(&buf, "unit %d: group %d ranges %v stripe %d/%d weight %d survivors", ui, u.Group, u.Ranges, u.StripeRem, u.StripeMod, img.Weights[ui])
				for _, c := range cands[ui] {
					fmt.Fprintf(&buf, " %d", len(c))
				}
				if img.Ship != nil {
					fmt.Fprintf(&buf, " ship %v", img.Ship[ui])
				}
				buf.WriteByte('\n')
			}
		}
	}
	path := filepath.Join("testdata", "plans.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range min(len(gl), len(wl)) {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("plans differ from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("plans differ from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

type planFixture struct {
	name string
	g    *graph.Graph
	set  *core.Set
}

// planFixtures are the golden's inputs: TestShipmentCountersGolden's
// YAGO2-like graph with its mined rules; planRules over a graph with hubs,
// so that stripes exist; and two symmetric two-component rules over a
// class long enough for diagonal and off-diagonal range pairs.
func planFixtures() []planFixture {
	mined := gen.YAGO2Like(gen.DatasetConfig{Scale: 200, Seed: 31})
	minedSet := gen.MineGFDs(mined, gen.MineConfig{NumRules: 6, PatternSize: 3, TwoCompFrac: 0.3, Seed: 32})
	gen.Inject(mined, gen.NoiseConfig{Rate: 0.25, Seed: 33, Kinds: []gen.NoiseKind{gen.AttributeNoise, gen.RepresentationalNoise}})

	hubs := gen.YAGO2Like(gen.DatasetConfig{Scale: 40, Seed: 1})
	addHubs(hubs, 1)
	hubSet := planRules(hubs, 1)

	sym := gen.YAGO2Like(gen.DatasetConfig{Scale: 200, Seed: 5})
	twins := pattern.New()
	twins.AddNode("a", "city")
	twins.AddNode("b", "city")
	pairs := pattern.New()
	a, b := pairs.AddNode("a", "city"), pairs.AddNode("b", "city")
	pairs.AddEdge(a, pairs.AddNode("x", "country"), "located_in")
	pairs.AddEdge(b, pairs.AddNode("y", "country"), "located_in")
	symSet := core.MustNewSet(
		core.MustNew("sym_twins", twins, []core.Literal{core.VarEq("a", "val", "b", "val")},
			[]core.Literal{core.Const("a", "val", "nowhere")}),
		core.MustNew("sym_pairs", pairs, []core.Literal{core.VarEq("x", "val", "y", "val")},
			[]core.Literal{core.VarEq("a", "val", "b", "val")}),
	)
	return []planFixture{{"mined", mined, minedSet}, {"hubs", hubs, hubSet}, {"symmetric", sym, symSet}}
}
