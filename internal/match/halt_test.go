package match

import (
	"fmt"
	"testing"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/pattern"
)

// haltWorkload is a match space large enough that the strided Halt probe
// must fire well before exhaustion: a two-component single-node pattern
// over n city nodes enumerates n² assignments.
func haltWorkload(n int) (*graph.Graph, *pattern.Pattern) {
	g := graph.New(0, 0)
	for i := 0; i < n; i++ {
		g.AddNode("city", graph.Attrs{"val": fmt.Sprint(i)})
	}
	q := pattern.New()
	q.AddNode("x", "city")
	q.AddNode("y", "city")
	return g, q
}

// TestHaltStopsEnumerationMidClass: once Options.Halt reports true, both
// enumeration paths stop within one probe stride even though the yield
// keeps asking for more. This is the hook the streaming pipeline's early
// termination rides — a consumer breaking out of Prepared.Violations must
// reach into candidate enumeration mid-class, not wait for the current
// unit to finish.
func TestHaltStopsEnumerationMidClass(t *testing.T) {
	g, q := haltWorkload(40)
	total := Count(g, q, Options{})
	if total <= 4*haltStride {
		t.Fatalf("workload too small to exercise the halt stride: %d matches", total)
	}
	paths := map[string]func(opts Options, yield func(core.Match) bool){
		"enumerate": func(opts Options, yield func(core.Match) bool) {
			Enumerate(g, q, opts, yield)
		},
		"snapshot": func(opts Options, yield func(core.Match) bool) {
			NewMatcher(g.Freeze()).Enumerate(q, opts, yield)
		},
	}
	for name, run := range paths {
		halted := false
		yields := 0
		run(Options{Halt: func() bool { return halted }}, func(core.Match) bool {
			yields++
			halted = true // trip on the first match; keep asking for more
			return true
		})
		if yields == 0 {
			t.Fatalf("%s: no match yielded before the halt tripped", name)
		}
		if yields >= total {
			t.Fatalf("%s: Halt ignored, all %d matches yielded", name, total)
		}
		if yields > 2*haltStride {
			t.Fatalf("%s: enumeration ran %d yields past the halt; probe stride is %d",
				name, yields, haltStride)
		}
	}
}

// TestHaltBeforeFirstMatch: a Halt that is already true yields nothing —
// the probe runs ahead of the first emission, so a consumer that broke
// before a unit started never pays for its match space.
func TestHaltBeforeFirstMatch(t *testing.T) {
	g, q := haltWorkload(40)
	yields := 0
	Enumerate(g, q, Options{Halt: func() bool { return true }}, func(core.Match) bool {
		yields++
		return true
	})
	if yields != 0 {
		t.Fatalf("pre-tripped halt still yielded %d matches", yields)
	}
}
