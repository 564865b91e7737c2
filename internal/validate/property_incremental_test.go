package validate_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gfd/internal/graph"
	"gfd/internal/incremental"
	"gfd/internal/validate"
)

// TestPropertyIncrementalEquivalent is TestPropertyEnginesEquivalent's
// incremental path: on the same random workloads, the detector's report
// equals the oracle before and after updates that set the literals' values
// (including a never-interned constant) and add edges.
func TestPropertyIncrementalEquivalent(t *testing.T) {
	f := func(seedRaw uint32) bool {
		seed := int64(seedRaw)
		g, set := validate.RandomWorkload(seed)
		d := incremental.New(g, set)
		if got, want := d.Report(), validate.OracleVio(g, set); !got.Equal(want) {
			t.Logf("seed %d: incremental detector found %d violations, oracle %d", seed, len(got), len(want))
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		var ups []incremental.Update
		for i := 0; i < 6; i++ {
			v := graph.NodeID(rng.Intn(g.NumNodes()))
			if i%3 == 2 {
				// No parallel duplicates, within the batch either: the oracle
				// yields a match once per duplicate edge.
				e := incremental.AddEdge{From: v, To: graph.NodeID(rng.Intn(g.NumNodes())), Label: "e"}
				if e.To != v && !g.HasEdge(v, e.To, "e") && !slices.Contains(ups, incremental.Update(e)) {
					ups = append(ups, e)
				}
				continue
			}
			ups = append(ups, incremental.SetAttr{Node: v, Attr: []string{"p", "q"}[i%2], Value: []string{"v0", "never"}[rng.Intn(2)]})
		}
		d.Apply(ups...)
		if got, want := d.Report(), validate.OracleVio(g, set); !got.Equal(want) {
			t.Logf("seed %d: after updates the incremental detector found %d violations, oracle %d", seed, len(got), len(want))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
