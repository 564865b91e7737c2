package main

import (
	"hash/fnv"

	"gfd"
)

// vioSet is an order-independent digest of a violation multiset: the count
// plus the wrapping sum of one mixed 64-bit hash per (rule, match vector).
// A sum, unlike an xor, moves when a violation is delivered twice, so it
// also checks exactly-once delivery. It stands in for Report.Equal, whose
// per-violation Key() strings would dominate the clock.
type vioSet struct {
	Count int    `json:"count"`
	Hash  uint64 `json:"hash"`
}

// ruleHashes maps each rule name to its 64-bit seed hash, computed once per
// rule set so hashing a violation costs one map lookup and a few multiplies.
type ruleHashes map[string]uint64

func newRuleHashes(set *gfd.Set) ruleHashes {
	rh := make(ruleHashes, set.Len())
	for _, r := range set.Rules() {
		rh.of(r.Name)
	}
	return rh
}

// of returns the seed hash of a rule name, adding it on first sight (the
// incremental detector names rules the same way, but a violation of a rule
// outside the set must still hash rather than panic).
func (rh ruleHashes) of(name string) uint64 {
	if h, ok := rh[name]; ok {
		return h
	}
	f := fnv.New64a()
	f.Write([]byte(name))
	h := f.Sum64()
	rh[name] = h
	return h
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (s *vioSet) add(rh ruleHashes, rule string, match []gfd.NodeID) {
	h := rh.of(rule)
	for _, id := range match {
		h = mix64(h ^ uint64(uint32(id)))
	}
	s.Count++
	s.Hash += h
}

func (s *vioSet) addReport(rh ruleHashes, r gfd.Report) {
	for _, v := range r {
		s.add(rh, v.Rule, v.Match)
	}
}
