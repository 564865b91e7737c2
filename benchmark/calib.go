package main

import (
	"math/rand"
	"time"
)

// refKernel is the host-speed reference: a fixed piece of work that shares
// no code with the repository, so no change to the repository moves it. It
// walks two hops out of 6000 pseudo-random sources of a synthetic CSR graph
// (20 000 nodes × 15 neighbours, 1.3 MB) — adjacency scans and random jumps
// through a cache-sized working set, the access pattern of the matcher and
// of the estimation BFS.
//
// The sandbox alternates between a quiet and a noisy regime that differ by
// 35–55 % on every workload's op while an ALU-bound loop moves by 6 %: the
// slow-down is in the shared cache and memory system (README "Host noise").
// This kernel slows down with the ops (×1.35–1.38 against ×1.33–1.55), so
// timing it next to every op and dividing tells the regime apart from the
// code under test.
type refKernel struct {
	off, adj []int32
	sink     uint64
}

// refKernelNominal is what one kernel run takes, interleaved with ops, on
// the host the baseline was recorded on in its quiet regime. A timing
// divided by (kernel wall ÷ refKernelNominal) reads in seconds of that
// host: the same number in both regimes, and raw seconds when quiet.
const refKernelNominal = 2100 * time.Microsecond

func newRefKernel() *refKernel {
	const nodes, degree = 20000, 15
	rng := rand.New(rand.NewSource(2))
	k := &refKernel{off: make([]int32, nodes+1), adj: make([]int32, 0, nodes*degree)}
	for v := 0; v < nodes; v++ {
		k.off[v] = int32(len(k.adj))
		for d := 0; d < degree; d++ {
			k.adj = append(k.adj, int32(rng.Intn(nodes)))
		}
	}
	k.off[nodes] = int32(len(k.adj))
	return k
}

// run does the fixed work — three passes, so that one reading averages
// ~9 ms of the host's behaviour — and returns the mean wall of a pass. It
// allocates nothing.
func (k *refKernel) run() time.Duration {
	const passes = 3
	start := time.Now()
	n := uint64(len(k.off) - 1)
	x := uint64(3)
	var sum uint64
	for i := 0; i < passes*6000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		v := (x >> 33) % n
		for _, u := range k.adj[k.off[v]:k.off[v+1]] {
			for _, w := range k.adj[k.off[u]:k.off[u+1]] {
				sum += uint64(k.off[w])
			}
		}
	}
	k.sink += sum
	return time.Since(start) / passes
}

// hostFactor is how much slower than nominal the host ran around an op,
// from the kernel runs just before and just after it.
func hostFactor(before, after time.Duration) float64 {
	return float64(before+after) / 2 / float64(refKernelNominal)
}
