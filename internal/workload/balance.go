package workload

import (
	"math/rand"
	"slices"
)

// Assignment maps each worker index to the indices of the units assigned
// to it.
type Assignment [][]int

// Makespan returns the maximum total weight across workers, the quantity
// the load-balancing problem minimizes.
func (a Assignment) Makespan(weights []int) int64 {
	var worst int64
	for _, units := range a {
		var load int64
		for _, u := range units {
			load += int64(weights[u])
		}
		if load > worst {
			worst = load
		}
	}
	return worst
}

// BalanceLPT computes a balanced n-partition with the classic
// longest-processing-time greedy rule: sort units by descending weight and
// repeatedly give the heaviest remaining unit to the least-loaded worker.
// This is the 2-approximation of Proposition 12 (4/3-approximate in fact,
// via Graham's bound); it runs in O(|W| · n) after a linear-time sort.
func BalanceLPT(weights []int, n int) Assignment {
	return assignGreedy(heaviestFirst(weights), weights, n, nil, 0)
}

// heaviestFirst returns the unit indices by descending weight, ties by
// ascending index: a stable LSD radix sort of the indices, taken in
// ascending order, on the key max − weight. Unit weights span few bits, so
// one or two counting passes replace the |W| log |W| comparisons.
func heaviestFirst(weights []int) []int {
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	if len(weights) == 0 {
		return order
	}
	const digitBits = 11
	top := uint64(slices.Max(weights))
	span := top - uint64(slices.Min(weights))
	next := make([]int, len(order))
	var start [1<<digitBits + 1]int
	for shift := 0; span>>shift > 0; shift += digitBits {
		digit := func(u int) uint64 { return (top - uint64(weights[u])) >> shift & (1<<digitBits - 1) }
		clear(start[:])
		for _, u := range order {
			start[digit(u)+1]++
		}
		for d := 1; d < len(start); d++ {
			start[d] += start[d-1]
		}
		for _, u := range order {
			d := digit(u)
			next[start[d]] = u
			start[d]++
		}
		order, next = next, order
	}
	return order
}

// BalanceRandom assigns units to workers uniformly at random; the repran /
// disran baseline variants of Section 7 use it in place of LPT.
func BalanceRandom(weights []int, n int, seed int64) Assignment {
	rng := rand.New(rand.NewSource(seed))
	out := make(Assignment, n)
	for i := range weights {
		w := rng.Intn(n)
		out[w] = append(out[w], i)
	}
	return out
}

// CommCoster reports, for a unit and a worker, the bytes that must be
// shipped to that worker if the unit is assigned there (zero when the
// unit's whole data block is already local).
type CommCoster func(unit, worker int) int64

// BalanceBiCriteria computes the bi-criteria assignment of Section 6.2:
// weights are balanced LPT-style while each placement decision is charged
// its communication cost, scaled by commWeight (c_s in the paper's cost
// model). Following the generalized-assignment strategy of Shmoys–Tardos
// as adapted by the paper, the greedy rule places the heaviest unit on the
// worker minimizing load + commWeight·CC(w, i).
func BalanceBiCriteria(weights []int, n int, cc CommCoster, commWeight float64) Assignment {
	return assignGreedy(heaviestFirst(weights), weights, n, cc, commWeight)
}

// assignGreedy places the units in the given order, each on the worker of
// least resulting load. Placements are recorded first and the per-worker
// lists carved out of one exactly sized backing array afterwards, so the
// assignment of |W| units costs a constant number of allocations.
func assignGreedy(order, weights []int, n int, cc CommCoster, commWeight float64) Assignment {
	loads := make([]float64, n)
	owner := make([]int32, len(order)) // owner[k]: worker of order[k]
	count := make([]int, n)
	for k, u := range order {
		best, bestCost := 0, 0.0
		for w := 0; w < n; w++ {
			cost := loads[w] + float64(weights[u])
			if cc != nil {
				cost += commWeight * float64(cc(u, w))
			}
			if w == 0 || cost < bestCost {
				best, bestCost = w, cost
			}
		}
		owner[k] = int32(best)
		count[best]++
		loads[best] += float64(weights[u])
		if cc != nil {
			loads[best] += commWeight * float64(cc(u, best))
		}
	}
	out := make(Assignment, n)
	backing := make([]int, len(order))
	lo := 0
	for w, c := range count {
		out[w] = backing[lo : lo : lo+c]
		lo += c
	}
	for k, u := range order {
		out[owner[k]] = append(out[owner[k]], u)
	}
	return out
}
