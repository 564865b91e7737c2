package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refCheckNodes and refCheckClasses are the per-node (per-class) loops
// the flat validation loops replaced, kept as the reference their errors
// must equal: message and precedence.
func refCheckNodes(f Flat, rk *ranks, lo, hi int) checkErr {
	nsyms := f.NumSyms()
	for v := lo; v < hi; v++ {
		if l := f.Labels[v]; l < 0 || int(l) >= nsyms {
			return checkErr{kindLabels, fmt.Errorf("graph: node %d label code %d out of range [0,%d)", v, l, nsyms)}
		} else if rk.rank(l).nbr < 0 {
			return checkErr{kindLabels, fmt.Errorf("graph: node %d label code %d has no node rank", v, l)}
		}
	}
	label := func(v NodeID) Sym { return f.Labels[v] }
	adjacency := func(name string, off []int32, es []CSREdge) error {
		n := len(f.Labels)
		for v := lo; v < hi; v++ {
			var prev CSREdge
			for i, e := range es[off[v]:off[v+1]] {
				if e.To < 0 || int(e.To) >= n {
					return fmt.Errorf("graph: %s edge of node %d targets %d, out of range [0,%d)", name, v, e.To, n)
				}
				if r := int(e.Label >> nbrBits); r >= len(f.EdgeLabels) {
					return fmt.Errorf("graph: %s edge of node %d edge rank %d out of range [0,%d)", name, v, r, len(f.EdgeLabels))
				}
				if got, want := int32(e.Label&nbrMask), rk.rank(f.Labels[e.To]).nbr; got != want {
					return fmt.Errorf("graph: %s edge of node %d to %d has neighbour rank %d, its label's is %d", name, v, e.To, got, want)
				}
				if i > 0 && compareCSR(prev, e, label) > 0 {
					return fmt.Errorf("graph: %s adjacency of node %d not in (key, to) order at %d", name, v, i)
				}
				prev = e
			}
		}
		return nil
	}
	if err := adjacency("out", f.OutOff, f.Out); err != nil {
		return checkErr{kindOut, err}
	}
	if err := adjacency("in", f.InOff, f.In); err != nil {
		return checkErr{kindIn, err}
	}
	for v := lo; v < hi; v++ {
		ps := f.AttrPairs[f.AttrOff[v]:f.AttrOff[v+1]]
		for i, p := range ps {
			if p.Name < 0 || int(p.Name) >= nsyms || p.Val < 0 || int(p.Val) >= nsyms {
				return checkErr{kindAttrs, fmt.Errorf("graph: node %d attr pair %d codes (%d,%d) out of range [0,%d)", v, i, p.Name, p.Val, nsyms)}
			}
			if i > 0 && ps[i-1].Name >= p.Name {
				return checkErr{kindAttrs, fmt.Errorf("graph: node %d attr tuple not strictly sorted by name at %d", v, i)}
			}
		}
	}
	return checkErr{}
}

func refCheckClasses(f Flat, lo, hi int) error {
	n := len(f.Labels)
	for l := lo; l < hi; l++ {
		class := f.Classes[f.ClassOff[l]:f.ClassOff[l+1]]
		for i, v := range class {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("graph: class %d member %d node id %d out of range [0,%d)", l, i, v, n)
			}
			if f.Labels[v] != Sym(l) {
				return fmt.Errorf("graph: class %d holds node %d labeled %d", l, v, f.Labels[v])
			}
			if i > 0 && class[i-1] >= v {
				return fmt.Errorf("graph: class %d not strictly ascending at %d", l, i)
			}
		}
	}
	return nil
}

// TestFlatChecksMatchPerNodeLoops corrupts the entries (never the
// offsets) of random images — codes and endpoints out of range or
// negative, adjacent entries swapped — and requires the flat loops to
// report exactly what the per-node loops do, on every range of nodes and
// classes tried, empty ranges and ranges of empty nodes included.
func TestFlatChecksMatchPerNodeLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 300; round++ {
		src, err := randomGraph(t, int64(round), 1+rng.Intn(40), rng.Intn(80)).Freeze().Flat()
		if err != nil {
			t.Fatal(err)
		}
		f := cloneFlat(src)
		rk, err := f.rankTable()
		if err != nil {
			t.Fatal(err)
		}
		n, s := len(f.Labels), f.NumSyms()
		wild := func(limit int) int32 { return int32(rng.Intn(limit+6) - 3) }
		for k := rng.Intn(4); k > 0; k-- {
			switch rng.Intn(7) {
			case 0:
				f.Labels[rng.Intn(n)] = Sym(wild(s))
			case 1, 2:
				es := [][]CSREdge{f.Out, f.In}[rng.Intn(2)]
				if len(es) == 0 {
					continue
				}
				i := rng.Intn(len(es))
				switch rng.Intn(3) {
				case 0:
					es[i].To = NodeID(wild(n))
				case 1:
					// An edge rank or a neighbour rank out of place.
					if rng.Intn(2) == 0 {
						es[i].Label = LabelKey(wild(len(f.EdgeLabels)))<<nbrBits | es[i].Label&nbrMask
					} else {
						es[i].Label = es[i].Label&^nbrMask | LabelKey(wild(len(f.NodeLabels)))&nbrMask
					}
				default:
					if i+1 < len(es) {
						es[i], es[i+1] = es[i+1], es[i]
					}
				}
			case 3, 4:
				if len(f.AttrPairs) == 0 {
					continue
				}
				i := rng.Intn(len(f.AttrPairs))
				switch rng.Intn(3) {
				case 0:
					f.AttrPairs[i].Name = Sym(wild(s))
				case 1:
					f.AttrPairs[i].Val = Sym(wild(s))
				default:
					if i+1 < len(f.AttrPairs) {
						f.AttrPairs[i], f.AttrPairs[i+1] = f.AttrPairs[i+1], f.AttrPairs[i]
					}
				}
			default:
				i := rng.Intn(n)
				if rng.Intn(2) == 0 || i+1 == n {
					f.Classes[i] = NodeID(wild(n))
				} else {
					f.Classes[i], f.Classes[i+1] = f.Classes[i+1], f.Classes[i]
				}
			}
		}
		for try := 0; try < 8; try++ {
			lo, hi := 0, n
			if try > 0 {
				lo = rng.Intn(n + 1)
				hi = lo + rng.Intn(n-lo+1)
			}
			got, want := f.checkNodes(&rk, lo, hi), refCheckNodes(f, &rk, lo, hi)
			if got.kind != want.kind && want.err != nil || fmt.Sprint(got.err) != fmt.Sprint(want.err) {
				t.Fatalf("round %d nodes [%d,%d): %d %v, per-node loops %d %v", round, lo, hi, got.kind, got.err, want.kind, want.err)
			}
			lo, hi = 0, s
			if try > 0 {
				lo = rng.Intn(s + 1)
				hi = lo + rng.Intn(s-lo+1)
			}
			if got, want := f.checkClasses(lo, hi).err, refCheckClasses(f, lo, hi); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("round %d classes [%d,%d): %v, per-class loops %v", round, lo, hi, got, want)
			}
		}
	}
}

// cloneFlat copies every array of f.
func cloneFlat(f Flat) Flat {
	return Flat{
		SymBlob: slices.Clone(f.SymBlob), SymOff: slices.Clone(f.SymOff), SymDir: slices.Clone(f.SymDir),
		EdgeLabels: slices.Clone(f.EdgeLabels), NodeLabels: slices.Clone(f.NodeLabels),
		Labels: slices.Clone(f.Labels), AttrOff: slices.Clone(f.AttrOff), AttrPairs: slices.Clone(f.AttrPairs),
		OutOff: slices.Clone(f.OutOff), Out: slices.Clone(f.Out), InOff: slices.Clone(f.InOff), In: slices.Clone(f.In),
		ClassOff: slices.Clone(f.ClassOff), Classes: slices.Clone(f.Classes),
	}
}

// TestValidateMatchesSerialOrder corrupts offsets as well as entries and
// requires the parallel validation, at one and at four workers, to report
// what one serial scan in the documented order does: every offset array
// (length, start, decrease, end), the arena sizes, then labels, out and
// in adjacency, tuples and classes over all nodes, then the symbol table.
func TestValidateMatchesSerialOrder(t *testing.T) {
	serial := func(f Flat) error {
		if err := f.checkOffsetArrays(true); err != nil {
			return err
		}
		rk, err := f.rankTable()
		if err != nil {
			return err
		}
		if e := refCheckNodes(f, &rk, 0, len(f.Labels)); e.err != nil {
			return e.err
		}
		if err := refCheckClasses(f, 0, f.NumSyms()); err != nil {
			return err
		}
		if nameAt(f.SymBlob, f.SymOff, 0) != "_" {
			return fmt.Errorf("graph: symbol table must start with the wildcard %q", "_")
		}
		return f.checkDir(0, f.NumSyms())
	}
	rng := rand.New(rand.NewSource(11))
	failures := 0
	for round := 0; round < 400; round++ {
		src, err := randomGraph(t, int64(round), 1+rng.Intn(300), rng.Intn(600)).Freeze().Flat()
		if err != nil {
			t.Fatal(err)
		}
		f := cloneFlat(src)
		for k := 1 + rng.Intn(3); k > 0; k-- {
			offs := [][]int32{f.AttrOff, f.OutOff, f.InOff, f.ClassOff}
			switch off := offs[rng.Intn(len(offs))]; rng.Intn(4) {
			case 0:
				i := rng.Intn(len(off))
				off[i] = int32(rng.Intn(int(off[len(off)-1])+6) - 3)
			case 1:
				if len(f.Out) > 0 {
					f.Out[rng.Intn(len(f.Out))].To = NodeID(rng.Intn(len(f.Labels) + 2))
				}
			case 2:
				f.Labels[rng.Intn(len(f.Labels))] = []Sym{-1, Sym(f.NumSyms())}[rng.Intn(2)]
			default:
				if i := rng.Intn(len(f.SymDir)); i > 0 {
					f.SymDir[i], f.SymDir[i-1] = f.SymDir[i-1], f.SymDir[i]
				}
			}
		}
		want := serial(f)
		if want != nil {
			failures++
		}
		for _, workers := range []int{1, 4} {
			if _, _, _, got := f.validate(workers, nil); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("round %d, %d workers: %v, serial scan %v", round, workers, got, want)
			}
		}
	}
	if failures < 300 {
		t.Fatalf("only %d of 400 corrupted images failed validation", failures)
	}
}
