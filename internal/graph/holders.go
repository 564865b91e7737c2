package graph

import (
	"slices"
	"sync"
)

// holderKey names the members of class label whose tuple holds attr = val.
type holderKey struct{ label, attr, val Sym }

// holders caches the value holders of one set of frozen arrays. A frozen
// snapshot makes it, every overlay view over its arrays shares it, and a
// compaction's new base starts a fresh one. Keyed by a plain struct, a hit
// allocates nothing.
type holders struct {
	mu   sync.Mutex
	byKV map[holderKey][]NodeID
}

// AppendAttrHolders appends to dst the holders of attr = val in label
// class l: exactly the members of NodesWith(l) whose tuple holds that
// pair, ascending and without duplicates.
//
// On frozen arrays the first call makes one pass over the class and
// caches the list. A view answers with that list minus the nodes whose
// tuple its patch holds, plus those of the patch's nodes of label l
// (patch.tupled) whose tuple holds the pair now.
func (s *Snapshot) AppendAttrHolders(dst []NodeID, l, attr, val Sym) []NodeID {
	base := s.frozenHolders(holderKey{l, attr, val})
	p := s.patch
	if p == nil {
		return append(dst, base...)
	}
	k := len(dst)
	for _, v := range base {
		if p.attrSlot[v] == 0 {
			dst = append(dst, v)
		}
	}
	n := len(dst)
	for _, v := range p.tupled[l] {
		if x, ok := lookupAttr(p.tuples[p.attrSlot[v]], attr); ok && x == val {
			dst = append(dst, v)
		}
	}
	if len(dst) > n {
		slices.Sort(dst[k:])
	}
	return dst
}

// frozenHolders returns the cached holders of key on the frozen arrays s
// reads (a view's are its base's), making the list on a miss.
func (s *Snapshot) frozenHolders(key holderKey) []NodeID {
	h := s.held
	h.mu.Lock()
	list, ok := h.byKV[key]
	h.mu.Unlock()
	if ok {
		return list
	}
	if l := key.label; l >= 0 && int(l) < len(s.classOff)-1 {
		for _, v := range s.classes[s.classOff[l]:s.classOff[l+1]] {
			if x, ok := lookupAttr(s.attrPairs[s.attrOff[v]:s.attrOff[v+1]], key.attr); ok && x == key.val {
				list = append(list, v)
			}
		}
	}
	h.mu.Lock()
	if h.byKV == nil {
		h.byKV = make(map[holderKey][]NodeID)
	}
	h.byKV[key] = list // a racing miss stores an equal list
	h.mu.Unlock()
	return list
}
