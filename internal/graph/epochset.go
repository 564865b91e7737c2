package graph

// EpochSet is a reusable node set over a dense ID space: membership is an
// epoch-stamped array probe, clearing is an epoch bump, and the member
// list is tracked for iteration. It exists for per-unit data blocks — the
// dist coordinator's halo selection, disVal's ship costs and the
// incremental detector's affected pivots materialize thousands per run,
// and a fresh hash set per block would dominate their allocations. One
// EpochSet per owner amortizes everything: after warm-up, Reset + BFS
// fill + membership probes are allocation-free.
//
// Not safe for concurrent use; workers own private sets. The zero value
// is unusable — construct with NewEpochSet.
type EpochSet struct {
	stamp   []uint32
	epoch   uint32
	members []NodeID

	// Per-fill BFS state for Snapshot.BlockInto. The visited mask is
	// separate from membership: a block is a *union* of independent
	// traversals, and a node already in the set from an earlier pivot's
	// fill must still be expanded through by the current one.
	visit          []uint32
	visitEpoch     uint32
	frontier, next []NodeID
}

// NewEpochSet returns an empty set over the ID space [0, n).
func NewEpochSet(n int) *EpochSet {
	return &EpochSet{stamp: make([]uint32, n), epoch: 1}
}

// Reset empties the set in O(1) (an epoch bump; the stamp array is cleared
// only on the once-per-2³²−1 wraparound).
func (s *EpochSet) Reset() {
	s.epoch++
	if s.epoch == 0 {
		clear(s.stamp)
		s.epoch = 1
	}
	s.members = s.members[:0]
}

// Add inserts id, reporting whether it was new.
func (s *EpochSet) Add(id NodeID) bool {
	if s.stamp[id] == s.epoch {
		return false
	}
	s.stamp[id] = s.epoch
	s.members = append(s.members, id)
	return true
}

// Contains reports membership. Out-of-range IDs (nodes added to the graph
// after the set was sized) are not members.
func (s *EpochSet) Contains(id NodeID) bool {
	return int(id) < len(s.stamp) && s.stamp[id] == s.epoch
}

// Members returns the current members in insertion order. The slice is
// invalidated by the next Reset; callers that retain it must copy.
func (s *EpochSet) Members() []NodeID { return s.members }

// beginFill starts a fresh visited mask for one traversal, growing both
// the mask and the membership stamp array to cover an ID space that has
// expanded since the set was built (nodes inserted through an Overlay).
// Grown regions are zeroed, i.e. unvisited and not members.
func (set *EpochSet) beginFill(n int) {
	if len(set.stamp) < n {
		grown := make([]uint32, n)
		copy(grown, set.stamp)
		set.stamp = grown
	}
	if len(set.visit) < n {
		set.visit = make([]uint32, n)
		set.visitEpoch = 0
	}
	set.visitEpoch++
	if set.visitEpoch == 0 {
		clear(set.visit)
		set.visitEpoch = 1
	}
}

// BlockInto adds to set every node within c undirected hops of start
// (including start) — the one snapshot traversal: it assembles
// multi-pivot data blocks without per-block allocation, and Neighborhood
// runs it on a pooled set. The
// set owns its visited mask and frontier buffers, so repeated fills reuse
// them. Out-of-range starts are ignored.
func (s *Snapshot) BlockInto(set *EpochSet, start NodeID, c int) {
	if int(start) < 0 || int(start) >= s.NumNodes() {
		return
	}
	set.beginFill(s.NumNodes())
	set.visit[start] = set.visitEpoch
	set.Add(start)
	frontier := append(set.frontier[:0], start)
	next := set.next[:0]
	for hop := 0; hop < c && len(frontier) > 0; hop++ {
		next = next[:0]
		for _, v := range frontier {
			for _, e := range s.Out(v) {
				if set.visit[e.To] != set.visitEpoch {
					set.visit[e.To] = set.visitEpoch
					set.Add(e.To)
					next = append(next, e.To)
				}
			}
			for _, e := range s.In(v) {
				if set.visit[e.To] != set.visitEpoch {
					set.visit[e.To] = set.visitEpoch
					set.Add(e.To)
					next = append(next, e.To)
				}
			}
		}
		frontier, next = next, frontier
	}
	set.frontier, set.next = frontier, next
}
