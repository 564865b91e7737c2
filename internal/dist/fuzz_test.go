package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"gfd/internal/core"
	"gfd/internal/fragment"
	"gfd/internal/graph"
	"gfd/internal/validate"
)

// FuzzWireDecode feeds arbitrary bytes to every payload decoder of the wire
// protocol — what a coordinator reads from a worker it does not trust to be
// alive, and a worker from its stdin. Each must return a value or an error
// wrapping errMalformed, never panic, and never build more elements than
// the payload has bytes (a lying count must not drive an allocation).
func FuzzWireDecode(f *testing.F) {
	f.Add(encodeHello(helloMsg{proto: protoVersion, worker: 1, numNodes: 99,
		heartbeat: time.Second, combine: true, shardPath: "s.0.gfds", rules: "gfd r {\n}", groups: 2}))
	f.Add(encodeReady(readyMsg{numNodes: 99, groups: 2}))
	f.Add(encodeAssign(nil, assignMsg{
		unit: validate.Unit{ID: 3, Group: 1, Ranges: []validate.Range{{Lo: 4, Hi: 5}, {Lo: 0, Hi: 300}}, StripeMod: 2, StripeRem: 1},
		skip: 7,
		halo: []haloNode{{id: 8, attrs: [][2]string{{"val", "x"}}, out: []haloEdge{{to: 9, label: "e"}}, in: []haloEdge{{to: 1, label: "f"}}}},
	}))
	f.Add(encodeVio(nil, vioMsg{unit: 3, vios: []validate.Violation{{Rule: "r", Match: core.Match{1, 2, 3}}}}))
	f.Add(encodeDone(nil, doneMsg{unit: 3, wall: time.Millisecond}))
	// A v2 DONE (unit, found, delivered, wall): 28 bytes where v3 reads 12.
	v2Done := binary.LittleEndian.AppendUint32(nil, 3)
	for _, v := range []uint64{5, 4, uint64(time.Millisecond)} {
		v2Done = binary.LittleEndian.AppendUint64(v2Done, v)
	}
	f.Add(v2Done)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	// v2 ASSIGNs at the edges of the range section: no range at all, and a
	// bound past what an int32 class position can hold.
	f.Add(encodeAssign(nil, assignMsg{unit: validate.Unit{ID: 1}}))
	f.Add(encodeAssign(nil, assignMsg{unit: validate.Unit{ID: 2, Ranges: []validate.Range{{Lo: 0, Hi: 1 << 40}}}}))
	// Node IDs past what a NodeID holds: a negative ID travels as a u64
	// above MaxInt32, in a halo node, a halo edge and a match.
	f.Add(encodeAssign(nil, assignMsg{unit: validate.Unit{ID: 4}, halo: []haloNode{{id: -1}}}))
	f.Add(encodeAssign(nil, assignMsg{unit: validate.Unit{ID: 4}, halo: []haloNode{{id: 8, out: []haloEdge{{to: -1 << 31, label: "e"}}}}}))
	f.Add(encodeAssign(nil, assignMsg{unit: validate.Unit{ID: 4}, halo: []haloNode{{id: 8, in: []haloEdge{{to: 9, label: "e"}, {to: -7, label: "f"}}}}}))
	f.Add(encodeVio(nil, vioMsg{unit: 3, vios: []validate.Violation{{Rule: "r", Match: core.Match{1, -1, 3}}}}))

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
		// A decoded node ID is never negative: past MaxInt32 is an error.
		checkIDs := func(what string, err error, ids ...graph.NodeID) {
			if err == nil && slices.ContainsFunc(ids, func(id graph.NodeID) bool { return id < 0 }) {
				t.Fatalf("%s: decoded a negative node ID from %x", what, data)
			}
		}
		a, err := decodeAssign(data)
		elems := len(a.unit.Ranges) + len(a.halo)
		for _, hn := range a.halo {
			elems += len(hn.attrs) + len(hn.out) + len(hn.in)
			checkIDs("assign", err, hn.id)
			for _, e := range append(hn.out, hn.in...) {
				checkIDs("assign", err, e.to)
			}
		}
		check("assign", elems, err)
		v, err := decodeVio(data)
		elems = len(v.vios)
		for _, vio := range v.vios {
			elems += len(vio.Match)
			checkIDs("vio", err, vio.Match...)
		}
		check("vio", elems, err)
		_, err = decodeDone(data)
		check("done", 0, err)
	})
}

// FuzzFrameReader feeds arbitrary byte streams to the frame reader — what
// sits on a pipe after a worker died mid-write, or worse. Every read must
// return a well-formed frame (the payload is exactly the claimed bytes of
// the stream) or a typed error, and the reader may never hold more than one
// growth step beyond the bytes it was actually given: a header claiming
// maxFrame over an empty body costs readStep, not 64 MiB.
func FuzzFrameReader(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x04, fVio}) // maxFrame claimed, nothing behind it
	f.Add([]byte{0x01, 0x00, 0x00, 0x04, fVio}) // one past maxFrame
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x00, 0x00, 0x00})
	done := encodeDone(nil, doneMsg{unit: 3, wall: time.Millisecond})
	f.Add(append(append([]byte{byte(len(done)), 0, 0, 0, fDone}, done...), 0, 0, 0, 0, fHeartbeat))
	assign := encodeAssign(nil, assignMsg{unit: validate.Unit{ID: 5, Group: 1, Ranges: []validate.Range{{Lo: 0, Hi: 256}}}, skip: 2})
	f.Add(append([]byte{byte(len(assign)), 0, 0, 0, fAssign}, assign...))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := &frameReader{r: bufio.NewReaderSize(bytes.NewReader(data), 16)}
		off := 0
		for {
			wasReady := fr.ready()
			typ, payload, err := fr.read()
			if cap(fr.buf) > len(data)+readStep {
				t.Fatalf("reader holds %d bytes after a %d-byte stream", cap(fr.buf), len(data))
			}
			if err != nil {
				if err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, errMalformed) {
					t.Fatalf("untyped error %v", err)
				}
				if wasReady {
					t.Fatalf("a frame reported ready failed to read: %v", err)
				}
				if err == io.EOF && off != len(data) {
					t.Fatalf("clean EOF with %d of %d bytes consumed", off, len(data))
				}
				return
			}
			end := off + frameOverhead + len(payload)
			if end > len(data) || data[off+4] != typ || !bytes.Equal(payload, data[off+frameOverhead:end]) {
				t.Fatalf("frame at offset %d is not the stream's bytes", off)
			}
			off = end
		}
	})
}

// manifestRejections are manifests parseManifest refuses, one per check,
// each with a fragment of its error.
var manifestRejections = []struct{ name, json, err string }{
	{"bad JSON", `{"version": 1,`, "unexpected end of JSON input"},
	{"version", `{"version": 2, "num_nodes": 3, "workers": 1, "strategy": "hash", "shards": ["m.0.gfds"]}`, "version 2, want 1"},
	{"no workers", `{"version": 1, "num_nodes": 3, "workers": 0, "strategy": "hash", "shards": []}`, "0 workers but 0 shards"},
	{"shard count", `{"version": 1, "num_nodes": 3, "workers": 2, "strategy": "hash", "shards": ["m.0.gfds"]}`, "2 workers but 1 shards"},
	{"negative nodes", `{"version": 1, "num_nodes": -1, "workers": 1, "strategy": "hash", "shards": ["m.0.gfds"]}`, "negative node count"},
	{"strategy", `{"version": 1, "num_nodes": 3, "workers": 1, "strategy": "round", "shards": ["m.0.gfds"]}`, `unknown strategy "round"`},
}

// TestParseManifestRejects: each malformed manifest fails with its own
// error.
func TestParseManifestRejects(t *testing.T) {
	for _, r := range manifestRejections {
		if m, err := parseManifest([]byte(r.json), "/shards"); err == nil || !strings.Contains(err.Error(), r.err) {
			t.Errorf("%s: parseManifest = %+v, %v; want an error holding %q", r.name, m, err, r.err)
		}
	}
}

// FuzzParseManifest feeds arbitrary bytes to the manifest decoder, the
// one file the multi-process engine reads besides its shards. Each input
// must fail, or yield as many shards as workers (at least one), a node
// count of zero or more, a strategy that parses, and absolute shard paths.
// The corpus starts from a manifest WriteShards wrote and one rejection
// per check.
func FuzzParseManifest(f *testing.F) {
	g := graph.New(3, 2)
	a, b, c := g.AddNode("a", nil), g.AddNode("b", nil), g.AddNode("a", nil)
	if g.AddEdge(a, b, "e") != nil || g.AddEdge(c, b, "e") != nil {
		f.Fatal("building the graph failed")
	}
	mp, err := WriteShards(g.Freeze(), 2, fragment.Range, f.TempDir(), "m")
	if err != nil {
		f.Fatal(err)
	}
	written, err := os.ReadFile(mp)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := parseManifest(written, "/shards"); err != nil {
		f.Fatalf("the written manifest: %v", err)
	}
	f.Add(written)
	for _, r := range manifestRejections {
		f.Add([]byte(r.json))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data, "/shards")
		if err != nil {
			return
		}
		if m.Workers < 1 || len(m.Shards) != m.Workers || m.NumNodes < 0 {
			t.Fatalf("accepted %d workers, %d shards, %d nodes", m.Workers, len(m.Shards), m.NumNodes)
		}
		if s, err := fragment.ParseStrategy(m.Strategy); err != nil || s != m.strategy {
			t.Fatalf("accepted strategy %q as %v (%v)", m.Strategy, m.strategy, err)
		}
		for _, p := range m.Shards {
			if !filepath.IsAbs(p) {
				t.Fatalf("shard path %q is not absolute", p)
			}
		}
	})
}
