package dist

import (
	"errors"
	"testing"
	"time"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/validate"
)

// FuzzWireDecode feeds arbitrary bytes to every payload decoder of the wire
// protocol — what a coordinator reads from a worker it does not trust to be
// alive, and a worker from its stdin. Each must return a value or an error
// wrapping errMalformed, never panic, and never build more elements than
// the payload has bytes (a lying count must not drive an allocation).
func FuzzWireDecode(f *testing.F) {
	f.Add(encodeHello(helloMsg{proto: protoVersion, worker: 1, workers: 4, numNodes: 99,
		heartbeat: time.Second, combine: true, shardPath: "s.0.gfds", rules: "gfd r {\n}", groups: 2}))
	f.Add(encodeReady(readyMsg{numNodes: 99, groups: 2}))
	f.Add(encodeAssign(assignMsg{
		unit: validate.DistUnit{ID: 3, Group: 1, Candidates: []graph.NodeID{4, 5}, StripeMod: 2, StripeRem: 1, BlockSize: 9},
		skip: 7,
		halo: []haloNode{{id: 8, attrs: [][2]string{{"val", "x"}}, out: []haloEdge{{to: 9, label: "e"}}, in: []haloEdge{{to: 1, label: "f"}}}},
	}))
	f.Add(encodeVio(vioMsg{unit: 3, vios: []validate.Violation{{Rule: "r", Match: core.Match{1, 2, 3}}}}))
	f.Add(encodeDone(doneMsg{unit: 3, found: 5, delivered: 4, wall: time.Millisecond}))
	f.Add(encodeCensus(censusMsg{unitsRun: 10, delivered: 4}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(what string, elems int, err error) {
			if err != nil && !errors.Is(err, errMalformed) {
				t.Fatalf("%s: untyped error %v", what, err)
			}
			if elems > len(data) {
				t.Fatalf("%s: %d elements decoded from %d bytes", what, elems, len(data))
			}
		}
		h, err := decodeHello(data)
		check("hello", len(h.shardPath)+len(h.rules), err)
		_, err = decodeReady(data)
		check("ready", 0, err)
		a, err := decodeAssign(data)
		elems := len(a.unit.Candidates) + len(a.halo)
		for _, hn := range a.halo {
			elems += len(hn.attrs) + len(hn.out) + len(hn.in)
		}
		check("assign", elems, err)
		v, err := decodeVio(data)
		elems = len(v.vios)
		for _, vio := range v.vios {
			elems += len(vio.Match)
		}
		check("vio", elems, err)
		_, err = decodeDone(data)
		check("done", 0, err)
		_, err = decodeCensus(data)
		check("census", 0, err)
	})
}
