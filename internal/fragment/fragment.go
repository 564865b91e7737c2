// Package fragment implements graph fragmentation for the distributed
// setting of Section 6.2: a fragmentation (F_1, ..., F_n) of G assigns
// every node to exactly one fragment (its owner).
//
// Fragments are views over a shared in-memory snapshot; the cluster runtime
// charges communication cost whenever a worker touches data outside its
// own fragment, which is how the simulation reproduces the paper's data
// shipment measurements without a physical network, and SaveShards writes
// one store file per fragment for the multi-process runtime.
package fragment

import (
	"context"
	"fmt"
	"hash/fnv"
	"path/filepath"

	"gfd/internal/graph"
	"gfd/internal/store"
)

// Strategy selects how nodes are assigned to fragments.
type Strategy uint8

const (
	// Hash assigns node v to fragment hash(v) mod n: the edge-cut
	// partitioning used for the paper's fragmented experiments.
	Hash Strategy = iota
	// Range assigns contiguous ID ranges, which keeps generator locality
	// (synthetic communities land together) and yields fewer border nodes.
	Range
)

// String names the strategy — the form shard manifests record.
func (s Strategy) String() string {
	if s == Range {
		return "range"
	}
	return "hash"
}

// ParseStrategy is the inverse of Strategy.String.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "hash":
		return Hash, nil
	case "range":
		return Range, nil
	}
	return Hash, fmt.Errorf("fragment: unknown strategy %q", name)
}

// Owner returns the fragment index strategy s assigns to node v in an
// n-way partition of numNodes nodes. This is the pure assignment formula
// behind Partition, exported so the distributed coordinator can reproduce
// shard ownership from a manifest (strategy, numNodes, n) without
// re-partitioning — the same triple must always map a node to the same
// shard, or halo shipping and unit reassignment would disagree about who
// owns what.
func Owner(s Strategy, v graph.NodeID, numNodes, n int) int {
	if n < 1 {
		n = 1
	}
	switch s {
	case Range:
		per := (numNodes + n - 1) / n
		owner := int(v) / max(per, 1)
		if owner >= n {
			owner = n - 1
		}
		return owner
	default:
		return hashNode(v) % n
	}
}

// Fragmentation is an n-way partition of a graph's nodes.
type Fragmentation struct {
	snap  *graph.Snapshot // the view the partition was cut from
	N     int
	Owner []int // node ID -> fragment index
}

// Partition splits g into n fragments using the given strategy. It reads
// g through its snapshot (Freeze), so a store-adopted graph is read from
// its flat arrays and no string form of it is built.
func Partition(g *graph.Graph, n int, s Strategy) *Fragmentation {
	return PartitionSnapshot(g.Freeze(), n, s)
}

// PartitionSnapshot is the snapshot-level form of Partition: it cuts snap,
// frozen or an overlay's patched view, and keeps it for the fragmentation's
// later reads (CutEdges, SaveShards), so partitioning a
// patched view never freezes the graph behind it.
func PartitionSnapshot(snap *graph.Snapshot, n int, s Strategy) *Fragmentation {
	if n < 1 {
		n = 1
	}
	f := &Fragmentation{snap: snap, N: n, Owner: make([]int, snap.NumNodes())}
	for v := range f.Owner {
		f.Owner[v] = Owner(s, graph.NodeID(v), len(f.Owner), n)
	}
	return f
}

func hashNode(v graph.NodeID) int {
	h := fnv.New32a()
	var b [4]byte
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	h.Write(b[:])
	return int(h.Sum32() & 0x7fffffff)
}

// OwnerOf returns the fragment index owning node v.
func (f *Fragmentation) OwnerOf(v graph.NodeID) int { return f.Owner[v] }

// CutEdges counts edges crossing fragments, a partition-quality metric.
func (f *Fragmentation) CutEdges() int {
	cut := 0
	for v := range f.Owner {
		for _, e := range f.snap.Out(graph.NodeID(v)) {
			if f.Owner[v] != f.Owner[e.To] {
				cut++
			}
		}
	}
	return cut
}

// NodeBytes estimates the serialized size of a node of s: its label,
// attribute tuple and adjacency. This is the unit in which data shipment
// is charged (the paper's CC(w) = c_s · |M| with c_s folded into the
// network model).
func NodeBytes(s *graph.Snapshot, v graph.NodeID) int64 {
	size := int64(len(s.LabelName(v))) + 8
	syms := s.Syms()
	for _, p := range s.AttrPairs(v) {
		size += int64(len(syms.Name(p.Name)) + len(syms.Name(p.Val)) + 2)
	}
	size += int64(s.OutDegree(v)+s.InDegree(v)) * 12 // edge endpoints + label tag
	return size
}

func (f *Fragmentation) String() string {
	return fmt.Sprintf("fragmentation(n=%d, cut=%d)", f.N, f.CutEdges())
}

// SaveShards persists the fragmentation as one .gfds file per fragment,
// named <prefix>.<i>.gfds under dir, and returns the paths in fragment
// order. Each shard is a *full-width* snapshot: the complete node, label,
// class, and symbol tables of the source graph (so NodeIDs, Sym codes, and
// candidate classes are global — identical on every shard), with attribute
// tuples only for owned nodes and adjacency restricted to edges incident
// to an owned endpoint. Keeping the symbol table global is what makes
// match enumeration order reproducible across shards, which the
// distributed runtime's skip-count retry dedupe relies on; the per-shard
// cost is one Sym per non-owned node and empty offset ranges, a few bytes
// a node.
//
// Shards are built by filtering the frozen snapshot's flat image and
// re-adopting it — no per-shard graph rebuild, no snapshot builds beyond
// the source freeze. The symbol directory is built (if the source table
// lacks one) once, by the source's Flat; every shard adopts it with the
// table and saves it unchanged. A fragmentation cut from a patched view
// returns graph.ErrPatchedView.
func (f *Fragmentation) SaveShards(ctx context.Context, dir, prefix string) ([]string, error) {
	return SaveShards(ctx, f.snap, f.Owner, f.N, dir, prefix)
}

// SaveShards is the snapshot-level form of Fragmentation.SaveShards: owner
// maps each NodeID to its fragment in [0,n).
func SaveShards(ctx context.Context, snap *graph.Snapshot, owner []int, n int, dir, prefix string) ([]string, error) {
	if n < 1 {
		n = 1
	}
	full, err := snap.Flat()
	if err != nil {
		return nil, fmt.Errorf("fragment: save shards: %w", err)
	}
	numNodes := len(full.Labels)
	if len(owner) != numNodes {
		return nil, fmt.Errorf("fragment: owner table covers %d nodes, snapshot has %d", len(owner), numNodes)
	}
	paths := make([]string, n)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ff := graph.Flat{
			SymBlob: full.SymBlob,
			SymOff:  full.SymOff,
			SymDir:  full.SymDir,
			// The full graph's ranks, as its symbols: shards order alike.
			EdgeLabels: full.EdgeLabels,
			NodeLabels: full.NodeLabels,
			Labels:     full.Labels,
			ClassOff:   full.ClassOff,
			Classes:    full.Classes,
			AttrOff:    make([]int32, numNodes+1),
			OutOff:     make([]int32, numNodes+1),
			InOff:      make([]int32, numNodes+1),
		}
		for v := 0; v < numNodes; v++ {
			owned := owner[v] == i
			if owned {
				ff.AttrPairs = append(ff.AttrPairs, full.AttrPairs[full.AttrOff[v]:full.AttrOff[v+1]]...)
			}
			ff.AttrOff[v+1] = int32(len(ff.AttrPairs))
			// An edge belongs to shard i iff either endpoint is owned; in
			// both CSR directions e.To is the *other* endpoint, so the same
			// filter keeps the two arenas consistent (and equally sized).
			for _, e := range full.Out[full.OutOff[v]:full.OutOff[v+1]] {
				if owned || owner[e.To] == i {
					ff.Out = append(ff.Out, e)
				}
			}
			ff.OutOff[v+1] = int32(len(ff.Out))
			for _, e := range full.In[full.InOff[v]:full.InOff[v+1]] {
				if owned || owner[e.To] == i {
					ff.In = append(ff.In, e)
				}
			}
			ff.InOff[v+1] = int32(len(ff.In))
		}
		shard, err := graph.AdoptFlat(ff)
		if err != nil {
			return nil, fmt.Errorf("fragment: shard %d image invalid: %w", i, err)
		}
		path := filepath.Join(dir, fmt.Sprintf("%s.%d.gfds", prefix, i))
		if err := store.Save(ctx, shard, path); err != nil {
			return nil, err
		}
		paths[i] = path
	}
	return paths, nil
}
