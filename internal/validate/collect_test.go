package validate

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"gfd/internal/core"
	"gfd/internal/graph"
)

// collectInput decodes 1–4 lanes of violations from data: up to eight rule
// names of arbitrary bytes (commas, shared prefixes and the empty name
// included), then violations, each on a lane with a name and 0–4 IDs in
// [0, 2³¹) of 1 to 10 digits. Missing bytes read as zero.
func collectInput(data []byte) (lanes int, emitted [][]Violation) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	lanes = 1 + int(next())%4
	names := make([]string, 1+int(next())%8)
	for i := range names {
		name := make([]byte, int(next())%6)
		for j := range name {
			name[j] = next()
		}
		names[i] = string(name)
	}
	emitted = make([][]Violation, lanes)
	for n := 0; len(data) > 0 && n < 512; n++ {
		lane, rule, arity := int(next())%lanes, names[int(next())%len(names)], int(next())%5
		var m core.Match // nil for arity 0, as the engines emit it
		for range arity {
			var id [4]byte
			for j := range id {
				id[j] = next()
			}
			shift := next() % 31
			m = append(m, graph.NodeID(binary.LittleEndian.Uint32(id[:])&(1<<31-1)>>shift))
		}
		emitted[lane] = append(emitted[lane], Violation{Rule: rule, Match: m})
	}
	return lanes, emitted
}

// collectSeed encodes a fuzz input over names with n violations drawn
// from rng.
func collectSeed(rng *rand.Rand, lanes int, names []string, n int) []byte {
	data := []byte{byte(lanes - 1), byte(len(names) - 1)}
	for _, name := range names {
		data = append(data, byte(len(name)))
		data = append(data, name...)
	}
	for range n {
		data = append(data, byte(rng.Intn(lanes)), byte(rng.Intn(len(names))), byte(rng.Intn(5)))
		for range 5 {
			data = append(data, byte(rng.Intn(256)))
		}
	}
	return data
}

// tieSeed encodes n violations of four IDs near 2³¹ over two lanes and the
// names "r" and "r,": their prefix keys hold two IDs, so most tie and the
// sort decides on the rest.
func tieSeed(rng *rand.Rand, n int) []byte {
	data := []byte{1, 1, 1, 'r', 2, 'r', ','}
	for range n {
		data = append(data, byte(rng.Intn(2)), byte(rng.Intn(2)), 4)
		for range 4 {
			data = binary.LittleEndian.AppendUint32(data, uint32(1<<31-1-rng.Intn(3)))
			data = append(data, 0)
		}
	}
	return data
}

// ordered is vs in ruleThenIDs order.
func ordered(vs []Violation) Report {
	r := slices.Clone(Report(vs))
	slices.SortFunc(r, ruleThenIDs)
	return r
}

// sameOrder reports whether a and b hold equal violations position by
// position.
func sameOrder(a, b Report) bool {
	return slices.EqualFunc(a, b, func(x, y Violation) bool { return ruleThenIDs(x, y) == 0 })
}

// inOrder is the keys of r in r's own order.
func inOrder(r Report) []string {
	ks := make([]string, len(r))
	for i, v := range r {
		ks[i] = v.Key()
	}
	return ks
}

// FuzzCollectSorted: the collect mode's sorted report of violations
// emitted over several lanes reads, violation by violation, as the
// violations ordered by ruleThenIDs and as the sink's unsorted union after
// Report.Sort; and appending to one returned match never changes another.
func FuzzCollectSorted(f *testing.F) {
	f.Add([]byte{})
	// The names TestPropertyReportSortIsRuleThenIDs entangles: proper
	// prefixes of one another continued by bytes below, at and above ','.
	names := []string{"r", "r ", "r!", "r+x", "r,", "r,1", "r-", "r0", "r1", "rule", "rule#2", "rule_2", "", "é"}
	rng := rand.New(rand.NewSource(1))
	for lo := 0; lo < len(names); lo += 4 {
		f.Add(collectSeed(rng, 1+lo%4, names[lo:min(lo+8, len(names))], 60))
	}
	// Long enough that a lane fills its first two chunks (firstChunk and
	// twice that many words) and starts a third.
	f.Add(collectSeed(rng, 1, names[:6], 400))
	f.Add(collectSeed(rng, 2, names[4:], 800))
	f.Add(tieSeed(rng, 300))
	f.Fuzz(func(t *testing.T, data []byte) {
		lanes, emitted := collectInput(data)
		want := ordered(slices.Concat(emitted...))
		var res Result
		sink, finish := orCollect(nil, lanes, &res)
		union := NewCollectSink(lanes)
		for lane, vs := range emitted {
			for _, v := range vs {
				sink.Emit(lane, v)
				union.Emit(lane, v)
			}
		}
		finish()
		sorted := res.Violations
		if !sameOrder(sorted, want) {
			t.Fatalf("sorted union\n%q\nruleThenIDs order\n%q", inOrder(sorted), inOrder(want))
		}
		resorted := union.Report()
		resorted.Sort()
		if !sameOrder(resorted, want) {
			t.Fatalf("Report then Report.Sort\n%q\nruleThenIDs order\n%q", inOrder(resorted), inOrder(want))
		}
		for _, r := range []Report{sorted, union.Report()} {
			before := inOrder(r)
			for _, v := range r {
				_ = append(v.Match, -1)
			}
			if after := inOrder(r); !slices.Equal(after, before) {
				t.Fatalf("appending to a match changed another:\n%q\nwas\n%q", after, before)
			}
		}
	})
}

// TestCollectEmptyReportNonNil: a run with no violations collects a
// non-nil empty report, sorted or not.
func TestCollectEmptyReportNonNil(t *testing.T) {
	var res Result
	_, finish := orCollect(nil, 2, &res)
	finish()
	if res.Violations == nil || len(res.Violations) != 0 {
		t.Fatalf("sorted report %#v, want a non-nil empty one", res.Violations)
	}
	if r := NewCollectSink(2).Report(); r == nil || len(r) != 0 {
		t.Fatalf("Report() = %#v, want a non-nil empty one", r)
	}
}

// TestCollectAcrossChunks: violations over three lanes, each crossing
// several chunk boundaries, with arities 0–4, rule names that are prefixes
// of one another ("r" beside "r,", "r,1" and "r1") and IDs up to ten
// digits, so that the prefix key holds at most two IDs and many keys tie
// within and across lanes. The sorted report reads as the violations
// ordered by ruleThenIDs, the unsorted one as the lanes in worker order,
// and appending to any returned match leaves every other one unchanged.
func TestCollectAcrossChunks(t *testing.T) {
	const lanes = 3
	names := []string{"a", "r", "r,", "r,1", "r1", "rule", "s"}
	firsts := []graph.NodeID{1, 10, 12, 2, 2000000000}
	rng := rand.New(rand.NewSource(7))
	var res Result
	sink, finish := orCollect(nil, lanes, &res)
	union := NewCollectSink(lanes)
	var all []Violation
	perLane := make([][]string, lanes)
	for i := range 3000 {
		var m core.Match
		for s := range i % 5 {
			id := firsts[rng.Intn(len(firsts))]
			if s > 0 {
				id = graph.NodeID(rng.Int31())
			}
			m = append(m, id)
		}
		v, lane := Violation{Rule: names[rng.Intn(len(names))], Match: m}, rng.Intn(lanes)
		sink.Emit(lane, v)
		union.Emit(lane, v)
		all, perLane[lane] = append(all, v), append(perLane[lane], v.Key())
	}
	for li := range union.lanes {
		if c := len(union.lanes[li].chunks); c < 5 {
			t.Fatalf("lane %d filled %d chunks, want several", li, c)
		}
	}
	finish()
	if !sameOrder(res.Violations, ordered(all)) {
		t.Fatalf("sorted report is not in ruleThenIDs order")
	}
	unsorted := union.Report()
	if got := inOrder(unsorted); !slices.Equal(got, slices.Concat(perLane...)) {
		t.Fatalf("unsorted report is not the lanes in worker order")
	}
	for _, r := range []Report{res.Violations, unsorted} {
		before := inOrder(r)
		for _, v := range r {
			_ = append(v.Match, -1)
		}
		if after := inOrder(r); !slices.Equal(after, before) {
			t.Fatalf("appending to a match changed another")
		}
	}
}
