package store_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"gfd/internal/fragment"
	"gfd/internal/graph"
	"gfd/internal/store"
)

func randomGraph(seed int64, nodes, edges int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"person", "city", "org", "x"}
	elabels := []string{"knows", "in", "owns"}
	attrs := []string{"name", "zip", "since"}
	g := graph.New(nodes, edges)
	for i := 0; i < nodes; i++ {
		var a graph.Attrs
		if rng.Intn(4) > 0 {
			a = graph.Attrs{attrs[rng.Intn(len(attrs))]: string(rune('a' + rng.Intn(6)))}
		}
		g.AddNode(labels[rng.Intn(len(labels))], a)
	}
	for i := 0; i < edges; i++ {
		g.MustAddEdge(graph.NodeID(rng.Intn(nodes)), graph.NodeID(rng.Intn(nodes)), elabels[rng.Intn(len(elabels))])
	}
	return g
}

func saveTo(t *testing.T, s *graph.Snapshot) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.gfds")
	if err := store.Save(context.Background(), s, path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return path
}

// flatEqual compares every array of two snapshots' images for exact
// equality — the round-trip contract is byte-identical arrays and
// identical symbol codes, not just isomorphic graphs.
func flatEqual(t *testing.T, gotSnap, wantSnap *graph.Snapshot) {
	t.Helper()
	got, err := gotSnap.Flat()
	if err != nil {
		t.Fatal(err)
	}
	want, err := wantSnap.Flat()
	if err != nil {
		t.Fatal(err)
	}
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		name := gv.Type().Field(i).Name
		a, b := gv.Field(i).Interface(), wv.Field(i).Interface()
		if !reflect.DeepEqual(a, b) && !(gv.Field(i).Len() == 0 && wv.Field(i).Len() == 0) {
			t.Fatalf("round trip changed %s:\n got %v\nwant %v", name, a, b)
		}
	}
}

// TestRoundTrip is the differential core: Open(Save(Freeze(g))) must
// reproduce the fresh freeze exactly, across graph shapes, and freezes
// at one and at four workers must save byte-identical files.
func TestRoundTrip(t *testing.T) {
	cases := []struct {
		name         string
		nodes, edges int
		seed         int64
	}{
		{"small", 30, 80, 1},
		{"medium", 400, 1600, 2},
		{"sparse", 200, 50, 3},
		{"single", 1, 0, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := randomGraph(tc.seed, tc.nodes, tc.edges)
			serial := g.BuildSnapshot(1)
			parallel := g.BuildSnapshot(4)

			pSerial := filepath.Join(t.TempDir(), "serial.gfds")
			pParallel := filepath.Join(t.TempDir(), "parallel.gfds")
			if err := store.Save(context.Background(), serial, pSerial); err != nil {
				t.Fatalf("Save(serial): %v", err)
			}
			if err := store.Save(context.Background(), parallel, pParallel); err != nil {
				t.Fatalf("Save(parallel): %v", err)
			}
			bs, _ := os.ReadFile(pSerial)
			bp, _ := os.ReadFile(pParallel)
			if !bytes.Equal(bs, bp) {
				t.Fatalf("serial and parallel freeze saved different bytes (%d vs %d)", len(bs), len(bp))
			}

			l, err := store.Open(context.Background(), pSerial)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer l.Close()
			flatEqual(t, l.Snapshot(), serial)

			// The loaded snapshot's graph handle answers reads without a
			// single snapshot build.
			lg := l.Snapshot().Graph()
			if lg.SnapshotBuilds() != 0 {
				t.Fatalf("loaded graph built %d snapshots before any use", lg.SnapshotBuilds())
			}
			if lg.NumNodes() != g.NumNodes() || lg.NumEdges() != g.NumEdges() {
				t.Fatalf("loaded graph (%d,%d), want (%d,%d)", lg.NumNodes(), lg.NumEdges(), g.NumNodes(), g.NumEdges())
			}
			if lg.Freeze() != l.Snapshot() {
				t.Fatal("Freeze on the loaded graph did not return the adopted snapshot")
			}
			if lg.SnapshotBuilds() != 0 {
				t.Fatalf("Freeze on the loaded graph built a snapshot (builds=%d)", lg.SnapshotBuilds())
			}
			for v := 0; v < g.NumNodes(); v++ {
				id := graph.NodeID(v)
				if lg.Label(id) != g.Label(id) {
					t.Fatalf("node %d: label %q, want %q", v, lg.Label(id), g.Label(id))
				}
				if lg.Degree(id) != g.Degree(id) {
					t.Fatalf("node %d: degree %d, want %d", v, lg.Degree(id), g.Degree(id))
				}
			}
		})
	}
}

// TestRoundTripEmptyGraph covers the degenerate arenas (no nodes, no
// edges, no attributes).
func TestRoundTripEmptyGraph(t *testing.T) {
	g := graph.New(0, 0)
	path := saveTo(t, g.Freeze())
	l, err := store.Open(context.Background(), path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	if n := l.Snapshot().NumNodes(); n != 0 {
		t.Fatalf("empty graph loaded with %d nodes", n)
	}
}

// TestLoadedGraphMutation checks the migration contract: a direct write to
// the sealed graph behind a loaded snapshot patches its live overlay, and
// the next freeze flattens the patched view into fresh arrays instead of
// writing anywhere near the mapping.
func TestLoadedGraphMutation(t *testing.T) {
	g := randomGraph(11, 50, 150)
	path := saveTo(t, g.Freeze())
	l, err := store.Open(context.Background(), path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()

	lg := l.Snapshot().Graph()
	lg.SetAttr(0, "name", "changed")
	id := lg.AddNode("person", graph.Attrs{"name": "new"})
	lg.MustAddEdge(id, 0, "knows")

	s2 := lg.Freeze()
	if s2 == l.Snapshot() {
		t.Fatal("freeze after mutation returned the mapped snapshot")
	}
	if lg.SnapshotBuilds() != 1 {
		t.Fatalf("expected exactly one rebuild after mutation, got %d", lg.SnapshotBuilds())
	}
	if v, _ := s2.Attr(0, "name"); v != "changed" {
		t.Fatalf("mutation lost: attr = %q", v)
	}
	if got, want := s2.NumNodes(), g.NumNodes()+1; got != want {
		t.Fatalf("rebuilt snapshot has %d nodes, want %d", got, want)
	}
	// The original file must be untouched by all of the above.
	l2, err := store.Open(context.Background(), path)
	if err != nil {
		t.Fatalf("re-Open after mutation: %v", err)
	}
	defer l2.Close()
	flatEqual(t, l2.Snapshot(), g.Freeze())
}

// corrupt returns a copy of b with mutate applied.
func corrupt(b []byte, mutate func([]byte)) []byte {
	c := append([]byte(nil), b...)
	mutate(c)
	return c
}

func mustDecodeErr(t *testing.T, data []byte, want error, opts ...store.Option) error {
	t.Helper()
	_, err := decodeEach(t, data, opts...)
	if err == nil {
		t.Fatal("Decode accepted corrupt input")
	}
	if !errors.Is(err, want) {
		t.Fatalf("Decode error = %v, want errors.Is(%v)", err, want)
	}
	return err
}

// decodeEach decodes data at GOMAXPROCS 1 and 4 (the validation's worker
// count) and fails unless both return the same error text: which error a
// corrupt file yields must not depend on how the validation is sharded.
func decodeEach(t *testing.T, data []byte, opts ...store.Option) (*graph.Snapshot, error) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want, wantErr := store.Decode(data, opts...)
	runtime.GOMAXPROCS(4)
	_, err := store.Decode(data, opts...)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("error depends on the worker count:\n 1 worker:  %v\n 4 workers: %v", wantErr, err)
	}
	return want, wantErr
}

// section returns the file offset and length the section table records
// for section id.
func section(t *testing.T, b []byte, id uint32) (off, ln int) {
	t.Helper()
	count := int(binary.LittleEndian.Uint32(b[12:16]))
	for i := 0; i < count; i++ {
		e := b[16+i*32:]
		if binary.LittleEndian.Uint32(e[0:4]) == id {
			return int(binary.LittleEndian.Uint64(e[8:16])), int(binary.LittleEndian.Uint64(e[16:24]))
		}
	}
	t.Fatalf("no section %d", id)
	return 0, 0
}

// Section ids of the format, as the tests need them.
const (
	secSymBlob = 2
	secSymOff  = 3
	secLabels  = 4
	secOutOff  = 7
	secOut     = 8
	secSymDir  = 13
	secEdgeRk  = 14
	secNodeRk  = 15
)

// TestDecodeCorruption walks the corruption taxonomy: every class must
// come back as the right typed error, never a panic or a bogus snapshot.
// Each case runs on a small image and on one large enough for the
// validation to take four shards, and decodeEach checks that the error
// text is the same with one freeze worker and with four.
func TestDecodeCorruption(t *testing.T) {
	type image struct {
		g    *graph.Graph
		good []byte
	}
	var images []image
	for _, size := range [][2]int{{40, 120}, {4000, 14000}} {
		g := randomGraph(5, size[0], size[1])
		good, err := os.ReadFile(saveTo(t, g.Freeze()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.Decode(good); err != nil {
			t.Fatalf("pristine file rejected: %v", err)
		}
		images = append(images, image{g, good})
	}
	// each runs a case on every image; the body bit flips sample a large
	// image's positions with a wider stride.
	each := func(t *testing.T, fn func(t *testing.T, g *graph.Graph, good []byte)) {
		for _, img := range images {
			fn(t, img.g, img.good)
		}
	}

	t.Run("bad magic", func(t *testing.T) {
		each(t, func(t *testing.T, _ *graph.Graph, good []byte) {
			mustDecodeErr(t, corrupt(good, func(b []byte) { b[0] = 'X' }), store.ErrCorrupt)
		})
	})
	t.Run("version skew", func(t *testing.T) {
		// Format 1 sorted adjacency by (label, neighbour) alone, format 2
		// had no symbol directory and format 3 stored label codes, not
		// keys: their files are a version this build does not read, not
		// corrupt ones.
		each(t, func(t *testing.T, _ *graph.Graph, good []byte) {
			for _, v := range []uint32{1, 2, 3, 99} {
				c := corrupt(good, func(b []byte) { binary.LittleEndian.PutUint32(b[4:8], v) })
				mustDecodeErr(t, c, store.ErrVersion)
			}
		})
	})
	t.Run("endianness mismatch", func(t *testing.T) {
		each(t, func(t *testing.T, _ *graph.Graph, good []byte) {
			c := corrupt(good, func(b []byte) { b[8], b[9], b[10], b[11] = b[11], b[10], b[9], b[8] })
			mustDecodeErr(t, c, store.ErrVersion)
		})
	})
	t.Run("section count lies", func(t *testing.T) {
		each(t, func(t *testing.T, _ *graph.Graph, good []byte) {
			for _, n := range []uint32{0, 3, 65, 1 << 30} {
				c := corrupt(good, func(b []byte) { binary.LittleEndian.PutUint32(b[12:16], n) })
				mustDecodeErr(t, c, store.ErrCorrupt)
			}
		})
	})
	t.Run("truncation", func(t *testing.T) {
		// Every strict prefix must be rejected; step oddly so boundary and
		// mid-section cuts are both hit, and cover the smallest prefixes
		// exhaustively.
		each(t, func(t *testing.T, _ *graph.Graph, good []byte) {
			for cut := 0; cut < len(good); cut += 1 + cut/16 {
				if _, err := decodeEach(t, good[:cut]); err == nil {
					t.Fatalf("accepted %d-byte prefix of a %d-byte file", cut, len(good))
				} else if !errors.Is(err, store.ErrCorrupt) && !errors.Is(err, store.ErrVersion) {
					t.Fatalf("prefix %d: untyped error %v", cut, err)
				}
			}
		})
	})
	t.Run("table offset beyond file", func(t *testing.T) {
		each(t, func(t *testing.T, _ *graph.Graph, good []byte) {
			c := corrupt(good, func(b []byte) { binary.LittleEndian.PutUint64(b[16+8:], 1<<40) })
			mustDecodeErr(t, c, store.ErrCorrupt)
		})
	})
	t.Run("table length lies", func(t *testing.T) {
		each(t, func(t *testing.T, _ *graph.Graph, good []byte) {
			c := corrupt(good, func(b []byte) { binary.LittleEndian.PutUint64(b[16+16:], 1<<40) })
			mustDecodeErr(t, c, store.ErrCorrupt)
		})
	})
	t.Run("duplicate section id", func(t *testing.T) {
		each(t, func(t *testing.T, _ *graph.Graph, good []byte) {
			c := corrupt(good, func(b []byte) {
				copy(b[16+32:16+64], b[16:16+32]) // second entry = first entry
			})
			mustDecodeErr(t, c, store.ErrCorrupt)
		})
	})
	t.Run("header edits fail the header crc", func(t *testing.T) {
		// The three table lies above hit the range the header checksum
		// covers, so flipping any single header/table byte must fail too.
		each(t, func(t *testing.T, _ *graph.Graph, good []byte) {
			c := corrupt(good, func(b []byte) { b[20] ^= 0x40 })
			mustDecodeErr(t, c, store.ErrCorrupt)
		})
	})
	t.Run("body bit flips", func(t *testing.T) {
		// Flip one bit in each body byte position (sampled): either the
		// section checksum catches it, or the flip landed in inter-section
		// padding and the decode result must equal the pristine one.
		each(t, func(t *testing.T, g *graph.Graph, good []byte) {
			want := g.Freeze()
			start := 16 + 15*32 + 4
			for pos := start; pos < len(good); pos += max(7, len(good)/1000) {
				c := corrupt(good, func(b []byte) { b[pos] ^= 0x10 })
				s, err := decodeEach(t, c)
				if err != nil {
					if !errors.Is(err, store.ErrCorrupt) {
						t.Fatalf("flip at %d: untyped error %v", pos, err)
					}
					continue
				}
				flatEqual(t, s, want)
			}
		})
	})
	t.Run("skip checksums still validates structure", func(t *testing.T) {
		// Without body CRCs, a flipped adjacency byte must still be caught
		// by the structural validation whenever it breaks an invariant —
		// and must never panic. Flip a byte inside the out-offsets section
		// so monotonicity breaks.
		each(t, func(t *testing.T, _ *graph.Graph, good []byte) {
			c := corrupt(good, func(b []byte) {
				off, _ := section(t, b, secOutOff)
				binary.LittleEndian.PutUint32(b[off+4:], 1<<30)
			})
			if _, err := decodeEach(t, c, store.SkipChecksums()); !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("structural validation missed a lying offset: %v", err)
			}
			// Sampled flips across the body: the structural check alone
			// decides, so its error (or acceptance) is what decodeEach
			// compares across worker counts.
			start := 16 + 15*32 + 4
			for pos := start; pos < len(good); pos += max(7, len(good)/1000) {
				c := corrupt(good, func(b []byte) { b[pos] ^= 0x10 })
				if _, err := decodeEach(t, c, store.SkipChecksums()); err != nil && !errors.Is(err, store.ErrCorrupt) {
					t.Fatalf("flip at %d: untyped error %v", pos, err)
				}
			}
		})
	})
	t.Run("structure errors in several shards", func(t *testing.T) {
		// An unsorted adjacency in the first node range and an out-of-range
		// label in the last: the serial order checks every label before
		// any adjacency, so the label error is the one reported, however
		// many shards the checks ran on.
		each(t, func(t *testing.T, g *graph.Graph, good []byte) {
			c := corrupt(good, func(b []byte) {
				off, _ := section(t, b, secLabels)
				binary.LittleEndian.PutUint32(b[off+4*(g.NumNodes()-1):], 1<<20)
				oo, _ := section(t, b, secOutOff)
				out, _ := section(t, b, secOut)
				for v := 0; v < g.NumNodes(); v++ {
					lo := int(binary.LittleEndian.Uint32(b[oo+4*v:]))
					hi := int(binary.LittleEndian.Uint32(b[oo+4*v+4:]))
					if hi-lo >= 2 && !bytes.Equal(b[out+8*lo:out+8*lo+8], b[out+8*lo+8:out+8*lo+16]) {
						e := out + 8*lo
						var tmp [8]byte
						copy(tmp[:], b[e:e+8])
						copy(b[e:e+8], b[e+8:e+16])
						copy(b[e+8:e+16], tmp[:])
						return
					}
				}
				t.Fatal("no node with two distinct out-edges")
			})
			err := mustDecodeErr(t, c, store.ErrCorrupt, store.SkipChecksums())
			if want := fmt.Sprintf("node %d label code", g.NumNodes()-1); !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not report the label (%q)", err, want)
			}
		})
	})
	// The symbol table must stay a bijection from names to dense codes
	// with the wildcard at code 0, and its directory must list the codes
	// in bytewise name order. With SkipChecksums the structural check
	// alone must catch a table that breaks either; with checksums on, the
	// section checksum is reported first.
	symbolCase := func(t *testing.T, c []byte, want string) {
		err := mustDecodeErr(t, c, store.ErrCorrupt, store.SkipChecksums())
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q, want the symbol check's %q", err, want)
		}
		if err := mustDecodeErr(t, c, store.ErrCorrupt); !strings.Contains(err.Error(), "checksum mismatch") || !strings.Contains(err.Error(), "symbol") {
			t.Fatalf("error %q, want a symbol section's checksum's", err)
		}
	}
	// names edits the names in place, then rewrites the directory as a
	// writer would for the edited names: their codes, stably sorted.
	names := func(t *testing.T, good []byte, mutate func(names [][]byte)) []byte {
		return corrupt(good, func(b []byte) {
			blob, _ := section(t, b, secSymBlob)
			offs, ln := section(t, b, secSymOff)
			ns := make([][]byte, ln/4-1)
			for i := range ns {
				lo := binary.LittleEndian.Uint32(b[offs+4*i:])
				hi := binary.LittleEndian.Uint32(b[offs+4*i+4:])
				ns[i] = b[blob+int(lo) : blob+int(hi)]
			}
			mutate(ns)
			dir := make([]int, len(ns))
			for i := range dir {
				dir[i] = i
			}
			slices.SortStableFunc(dir, func(x, y int) int { return bytes.Compare(ns[x], ns[y]) })
			d, _ := section(t, b, secSymDir)
			for i, c := range dir {
				binary.LittleEndian.PutUint32(b[d+4*i:], uint32(c))
			}
		})
	}
	// dir edits the directory alone; entries are i32 codes.
	dir := func(t *testing.T, good []byte, mutate func(dir []int32) []int32) []byte {
		return corrupt(good, func(b []byte) {
			d, ln := section(t, b, secSymDir)
			codes := make([]int32, ln/4)
			for i := range codes {
				codes[i] = int32(binary.LittleEndian.Uint32(b[d+4*i:]))
			}
			for i, c := range mutate(codes) {
				binary.LittleEndian.PutUint32(b[d+4*i:], uint32(c))
			}
		})
	}
	t.Run("duplicate symbol", func(t *testing.T) {
		each(t, func(t *testing.T, _ *graph.Graph, good []byte) {
			c := names(t, good, func(names [][]byte) {
				// Overwrite the last name with an earlier one of its length.
				last := names[len(names)-1]
				for _, n := range names[1 : len(names)-1] {
					if len(n) == len(last) && !bytes.Equal(n, last) {
						copy(last, n)
						return
					}
				}
				t.Fatal("no two names of equal length")
			})
			symbolCase(t, c, "duplicate symbol")
		})
	})
	t.Run("wildcard not first", func(t *testing.T) {
		each(t, func(t *testing.T, _ *graph.Graph, good []byte) {
			symbolCase(t, names(t, good, func(names [][]byte) { names[0][0] = '*' }), "wildcard")
		})
	})
	t.Run("symbol directory mis-sorted", func(t *testing.T) {
		each(t, func(t *testing.T, _ *graph.Graph, good []byte) {
			c := dir(t, good, func(d []int32) []int32 { d[3], d[4] = d[4], d[3]; return d })
			symbolCase(t, c, "symbol directory not in name order at 4")
		})
	})
	t.Run("symbol directory repeats a code", func(t *testing.T) {
		each(t, func(t *testing.T, _ *graph.Graph, good []byte) {
			c := dir(t, good, func(d []int32) []int32 { d[len(d)-1] = d[len(d)-2]; return d })
			symbolCase(t, c, "symbol directory repeats code")
		})
	})
	t.Run("symbol directory code out of range", func(t *testing.T) {
		each(t, func(t *testing.T, _ *graph.Graph, good []byte) {
			for _, code := range []int32{-1, int32(len(good)), 1 << 30} {
				c := dir(t, good, func(d []int32) []int32 { d[len(d)/2] = code; return d })
				symbolCase(t, c, "symbol directory entry")
			}
		})
	})
	t.Run("symbol directory of the wrong length", func(t *testing.T) {
		// The section table claims one code fewer (or more: the following
		// padding or end of file) than meta's symbol count; the header is
		// re-signed so the length check, not the header checksum, decides.
		each(t, func(t *testing.T, _ *graph.Graph, good []byte) {
			for _, delta := range []int{-4, 4} {
				c := corrupt(good, func(b []byte) {
					count := int(binary.LittleEndian.Uint32(b[12:16]))
					for i := 0; i < count; i++ {
						e := b[16+i*32:]
						if binary.LittleEndian.Uint32(e[0:4]) == secSymDir {
							binary.LittleEndian.PutUint64(e[16:24], uint64(int(binary.LittleEndian.Uint64(e[16:24]))+delta))
						}
					}
					end := 16 + count*32
					binary.LittleEndian.PutUint32(b[end:], crc32.Checksum(b[:end], crc32.MakeTable(crc32.Castagnoli)))
				})
				if delta > 0 {
					c = append(c, 0, 0, 0, 0) // the longer section must stay inside the file
				}
				symbolCase(t, c, "section 13 (symbol directory) is")
			}
		})
	})
	// Format 4's keys: each packs its edge label's rank and its
	// neighbour's node-label rank, per the two rank tables, and each node's
	// range is in (key, to) order. With SkipChecksums the structural check
	// alone must name the break; with checksums on, the out section's or
	// rank section's checksum is reported first.
	keyCase := func(t *testing.T, c []byte, want, section string) {
		err := mustDecodeErr(t, c, store.ErrCorrupt, store.SkipChecksums())
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q, want the key check's %q", err, want)
		}
		if err := mustDecodeErr(t, c, store.ErrCorrupt); !strings.Contains(err.Error(), "("+section+") checksum mismatch") {
			t.Fatalf("error %q, want the %s section's checksum's", err, section)
		}
	}
	// entry returns the offset of the i-th out entry's key word, and the
	// rank tables' lengths.
	entry := func(t *testing.T, b []byte, i int) (key, edges, nodes int) {
		out, _ := section(t, b, secOut)
		_, el := section(t, b, secEdgeRk)
		_, nl := section(t, b, secNodeRk)
		return out + 8*i + 4, el / 4, nl / 4
	}
	t.Run("key names the wrong neighbour rank", func(t *testing.T) {
		each(t, func(t *testing.T, _ *graph.Graph, good []byte) {
			c := corrupt(good, func(b []byte) {
				k, _, nodes := entry(t, b, 0)
				w := binary.LittleEndian.Uint32(b[k:])
				binary.LittleEndian.PutUint32(b[k:], w&^0xffff|(w&0xffff+1)%uint32(nodes))
			})
			keyCase(t, c, "has neighbour rank", "out")
		})
	})
	t.Run("key's edge rank out of range", func(t *testing.T) {
		each(t, func(t *testing.T, _ *graph.Graph, good []byte) {
			c := corrupt(good, func(b []byte) {
				k, edges, _ := entry(t, b, 0)
				w := binary.LittleEndian.Uint32(b[k:])
				binary.LittleEndian.PutUint32(b[k:], uint32(edges)<<16|w&0xffff)
			})
			keyCase(t, c, "edge rank 3 out of range [0,3)", "out")
		})
	})
	t.Run("rank table repeats a code", func(t *testing.T) {
		each(t, func(t *testing.T, _ *graph.Graph, good []byte) {
			for _, sec := range []struct {
				id   uint32
				name string
			}{{secEdgeRk, "edge"}, {secNodeRk, "node"}} {
				c := corrupt(good, func(b []byte) {
					off, _ := section(t, b, sec.id)
					copy(b[off+4:off+8], b[off:off+4])
				})
				keyCase(t, c, "repeats code", sec.name+" ranks")
			}
		})
	})
	t.Run("order break inside one key", func(t *testing.T) {
		// Two entries of one node under one key (same edge label, same
		// neighbour label) swapped: only the neighbour column is out of
		// order.
		each(t, func(t *testing.T, g *graph.Graph, good []byte) {
			c := corrupt(good, func(b []byte) {
				oo, _ := section(t, b, secOutOff)
				out, _ := section(t, b, secOut)
				for v := 0; v < g.NumNodes(); v++ {
					lo := int(binary.LittleEndian.Uint32(b[oo+4*v:]))
					hi := int(binary.LittleEndian.Uint32(b[oo+4*v+4:]))
					for i := lo; i+1 < hi; i++ {
						e := b[out+8*i : out+8*i+16]
						if bytes.Equal(e[4:8], e[12:16]) && !bytes.Equal(e[0:4], e[8:12]) {
							var tmp [8]byte
							copy(tmp[:], e[0:8])
							copy(e[0:8], e[8:16])
							copy(e[8:16], tmp[:])
							return
						}
					}
				}
				t.Fatal("no node has two neighbours under one key")
			})
			keyCase(t, c, "not in (key, to) order", "out")
		})
	})
}

// replaceSection returns a copy of a well-formed file whose section id
// holds payload instead, appended at the end of the file, with every
// checksum re-signed: a crafted image a writer of this format could have
// produced, whose sections only the graph checks judge.
func replaceSection(b []byte, id uint32, payload []byte) []byte {
	c := append([]byte(nil), b...)
	for len(c)%8 != 0 {
		c = append(c, 0)
	}
	off := len(c)
	c = append(c, payload...)
	count := int(binary.LittleEndian.Uint32(c[12:16]))
	for i := 0; i < count; i++ {
		e := c[16+i*32:]
		if binary.LittleEndian.Uint32(e[0:4]) == id {
			binary.LittleEndian.PutUint64(e[8:16], uint64(off))
			binary.LittleEndian.PutUint64(e[16:24], uint64(len(payload)))
		}
	}
	resign(c)
	return c
}

// TestDecodeEdgeLabelSpace: an image whose edge rank table lists more
// than graph.MaxEdgeLabels codes — each in range and distinct, so only the
// label space is at fault — fails as graph.ErrLabelSpace, and as
// ErrCorrupt, since no writer of this format produces it.
func TestDecodeEdgeLabelSpace(t *testing.T) {
	g := graph.New(2, graph.MaxEdgeLabels)
	a, b := g.AddNode("n", nil), g.AddNode("n", nil)
	for i := 0; i < graph.MaxEdgeLabels; i++ {
		g.MustAddEdge(a, b, fmt.Sprintf("e%d", i))
	}
	good, err := os.ReadFile(saveTo(t, g.Freeze()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Decode(good); err != nil {
		t.Fatalf("an image of %d edge labels rejected: %v", graph.MaxEdgeLabels, err)
	}
	off, ln := section(t, good, secEdgeRk)
	ranks := append([]byte(nil), good[off:off+ln]...)
	ranks = binary.LittleEndian.AppendUint32(ranks, uint32(g.Freeze().Syms().Lookup("n")))
	_, err = store.Decode(replaceSection(good, secEdgeRk, ranks))
	if !errors.Is(err, graph.ErrLabelSpace) || !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("Decode of an image ranking %d edge labels = %v, want ErrLabelSpace and ErrCorrupt", graph.MaxEdgeLabels+1, err)
	}
}

// TestSaveOpenCancellation: a canceled context aborts both directions
// with ctx.Err() and leaves no temp debris behind.
func TestSaveOpenCancellation(t *testing.T) {
	g := randomGraph(9, 30, 90)
	s := g.Freeze()
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	path := filepath.Join(dir, "g.gfds")
	if err := store.Save(ctx, s, path); !errors.Is(err, context.Canceled) {
		t.Fatalf("Save under canceled ctx: %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("canceled Save published a file")
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 0 {
		t.Fatalf("canceled Save left %d temp files", len(ents))
	}

	if err := store.Save(context.Background(), s, path); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(ctx, path); !errors.Is(err, context.Canceled) {
		t.Fatalf("Open under canceled ctx: %v", err)
	}
}

func TestSaveNilSnapshot(t *testing.T) {
	if err := store.Save(context.Background(), nil, filepath.Join(t.TempDir(), "x")); err == nil {
		t.Fatal("Save accepted a nil snapshot")
	}
}

// TestPatchedViewNotPersisted: an overlay's patched view shares its base's
// arrays, so persisting it as if it were frozen would silently drop every
// update. Each entry point must refuse it with graph.ErrPatchedView and
// write nothing.
func TestPatchedViewNotPersisted(t *testing.T) {
	ov := graph.NewOverlay(randomGraph(31, 20, 40))
	id := ov.AddNode("person", graph.Attrs{"name": "new"})
	ov.MustAddEdge(id, 0, "knows")
	view := ov.View()
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"Snapshot.Flat", func() error { _, err := view.Flat(); return err }},
		{"store.Save", func() error { return store.Save(context.Background(), view, filepath.Join(dir, "v.gfds")) }},
		{"fragment.SaveShards", func() error {
			_, err := fragment.SaveShards(context.Background(), view, make([]int, view.NumNodes()), 2, dir, "v")
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); !errors.Is(err, graph.ErrPatchedView) {
				t.Fatalf("%s on a patched view: %v, want graph.ErrPatchedView", tc.name, err)
			}
			if ents, _ := os.ReadDir(dir); len(ents) != 0 {
				t.Fatalf("refused %s left %d files", tc.name, len(ents))
			}
		})
	}
	saveTo(t, ov.Base()) // the frozen base stays persistable
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := store.Open(context.Background(), filepath.Join(t.TempDir(), "absent.gfds")); err == nil {
		t.Fatal("Open accepted a missing file")
	}
}

// TestRoundTripEmptyFragmentShard covers the shard-sized degenerate the
// distributed runtime produces: a fragment that owns no nodes at all.
// Its .gfds still carries the full node, label, class, and symbol tables
// (shards are full-width so NodeIDs and Sym codes stay global), but the
// attribute arena and both CSR edge arenas are zero-length sections — the
// file must round-trip through Save/Open instead of erroring on the
// zero-length section views, and every truncation of it must come back
// as a typed error.
func TestRoundTripEmptyFragmentShard(t *testing.T) {
	g := randomGraph(23, 30, 90)
	full := g.Freeze()
	// Every node owned by shard 0 of 3: shards 1 and 2 own nothing and
	// carry no attrs and no edges.
	owner := make([]int, g.NumNodes())
	dir := t.TempDir()
	paths, err := fragment.SaveShards(context.Background(), full, owner, 3, dir, "g")
	if err != nil {
		t.Fatalf("SaveShards: %v", err)
	}
	if len(paths) != 3 {
		t.Fatalf("SaveShards wrote %d shards, want 3", len(paths))
	}

	// Shard 0 holds everything: its image must equal the source freeze.
	l0, err := store.Open(context.Background(), paths[0])
	if err != nil {
		t.Fatalf("Open(full shard): %v", err)
	}
	defer l0.Close()
	flatEqual(t, l0.Snapshot(), full)

	for _, p := range paths[1:] {
		l, err := store.Open(context.Background(), p)
		if err != nil {
			t.Fatalf("Open(empty shard %s): %v", p, err)
		}
		s := l.Snapshot()
		if s.NumNodes() != g.NumNodes() {
			t.Fatalf("empty shard holds %d nodes, want full table of %d", s.NumNodes(), g.NumNodes())
		}
		if got, want := s.Syms().Len(), full.Syms().Len(); got != want {
			t.Fatalf("empty shard symbol table has %d codes, want global %d", got, want)
		}
		for v := 0; v < s.NumNodes(); v++ {
			id := graph.NodeID(v)
			if s.Label(id) != full.Label(id) {
				t.Fatalf("empty shard relabeled node %d", v)
			}
			if len(s.AttrPairs(id)) != 0 || len(s.Out(id)) != 0 || len(s.In(id)) != 0 {
				t.Fatalf("empty shard carries data for node %d", v)
			}
		}
		l.Close()
	}

	// The zero-length-section file joins the corruption matrix: every
	// strict prefix must be rejected with a typed error, never accepted
	// or panicked on.
	empty, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(empty); cut += 1 + cut/16 {
		if _, err := store.Decode(empty[:cut]); err == nil {
			t.Fatalf("accepted %d-byte prefix of a %d-byte empty shard", cut, len(empty))
		} else if !errors.Is(err, store.ErrCorrupt) && !errors.Is(err, store.ErrVersion) {
			t.Fatalf("prefix %d: untyped error %v", cut, err)
		}
	}

	// A zero-node source graph degenerates every shard to the zero-node
	// snapshot; those must round-trip too (the gfdgen -fragments path on
	// a pathological input).
	eg := graph.New(0, 0)
	eps, err := fragment.SaveShards(context.Background(), eg.Freeze(), nil, 2, dir, "e")
	if err != nil {
		t.Fatalf("SaveShards(zero-node): %v", err)
	}
	for _, p := range eps {
		l, err := store.Open(context.Background(), p)
		if err != nil {
			t.Fatalf("Open(zero-node shard %s): %v", p, err)
		}
		if n := l.Snapshot().NumNodes(); n != 0 {
			t.Fatalf("zero-node shard loaded with %d nodes", n)
		}
		l.Close()
	}
}

// sameByNames compares two snapshots through their own symbol tables:
// labels, attribute tuples, adjacency (as multisets, since each is sorted
// by its own codes) and label classes, node by node.
func sameByNames(t *testing.T, got, want *graph.Snapshot) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("|V|=%d |E|=%d, want %d %d", got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	gs, ws := got.Syms(), want.Syms()
	render := func(s *graph.Snapshot, es []graph.CSREdge) []string {
		out := make([]string, len(es))
		for i, e := range es {
			out[i] = fmt.Sprintf("%s>%d", s.Syms().Name(s.EdgeLabel(e.Label)), e.To)
		}
		slices.Sort(out)
		return out
	}
	pairs := func(syms *graph.Symbols, ps []graph.AttrPair) map[string]string {
		m := make(map[string]string, len(ps))
		for _, p := range ps {
			m[syms.Name(p.Name)] = syms.Name(p.Val)
		}
		return m
	}
	for v := 0; v < want.NumNodes(); v++ {
		id := graph.NodeID(v)
		if got.LabelName(id) != want.LabelName(id) {
			t.Fatalf("label of %d: %q, want %q", v, got.LabelName(id), want.LabelName(id))
		}
		if !reflect.DeepEqual(pairs(gs, got.AttrPairs(id)), pairs(ws, want.AttrPairs(id))) {
			t.Fatalf("attributes of %d differ", v)
		}
		if !slices.Equal(render(got, got.Out(id)), render(want, want.Out(id))) || !slices.Equal(render(got, got.In(id)), render(want, want.In(id))) {
			t.Fatalf("adjacency of %d differs", v)
		}
		l := want.LabelName(id)
		if !slices.Equal(got.NodesWithLabel(l), want.NodesWithLabel(l)) {
			t.Fatalf("class %q differs", l)
		}
	}
}

// TestCompactedOverlayRoundTrip: compaction flattens an overlay's patched
// view into a snapshot that shares the live (grown) symbol table. On a
// heap-built and on a store-adopted base it must equal, by names, a fresh
// freeze of a twin graph that took the same updates directly, and
// round-trip through Save and Decode, which validates every invariant.
func TestCompactedOverlayRoundTrip(t *testing.T) {
	for _, adopted := range []bool{false, true} {
		t.Run(fmt.Sprintf("adopted=%v", adopted), func(t *testing.T) {
			g, twin := randomGraph(41, 60, 150), randomGraph(41, 60, 150)
			if adopted {
				l, err := store.Open(context.Background(), saveTo(t, g.Freeze()))
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				g = l.Snapshot().Graph()
			}
			ov := graph.NewOverlay(g)
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 90; i++ {
				n := ov.NumNodes()
				switch i % 3 {
				case 0:
					a := graph.Attrs{"fresh": fmt.Sprint(i)} // names the base never interned
					if id, tid := ov.AddNode("country", a.Clone()), twin.AddNode("country", a); id != tid {
						t.Fatalf("overlay node %d, twin %d", id, tid)
					}
				case 1:
					from, to := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
					ov.MustAddEdge(from, to, "borders")
					twin.MustAddEdge(from, to, "borders")
				default:
					v, val := graph.NodeID(rng.Intn(n)), fmt.Sprintf("w%d", i)
					ov.SetAttr(v, "zip", val)
					twin.SetAttr(v, "zip", val)
				}
			}
			flat := g.Freeze()
			if flat.Syms() != ov.Syms() {
				t.Fatal("compaction must share the live symbol table")
			}
			// Interning after the flatten grows the table past the frozen
			// class offsets; the image must stay valid.
			flat.Syms().Intern("interned-later")
			want := twin.Freeze()
			sameByNames(t, flat, want)
			data, err := os.ReadFile(saveTo(t, flat))
			if err != nil {
				t.Fatal(err)
			}
			back, err := store.Decode(data)
			if err != nil {
				t.Fatalf("Decode of a compacted overlay: %v", err)
			}
			sameByNames(t, back, want)
		})
	}
}

// TestDecodeFormat2Fixture: a file written by a format-2 build (no symbol
// directory; testdata/v2.gfds, a three-node graph) is a version this build
// does not read, not a corrupt file, through Decode and Open alike.
func TestDecodeFormat2Fixture(t *testing.T) { requireOldFormat(t, 2) }

// TestDecodeFormat3Fixture: so is a file written by a format-3 build
// (label codes in the adjacency, no rank tables; testdata/v3.gfds, a
// three-node graph).
func TestDecodeFormat3Fixture(t *testing.T) { requireOldFormat(t, 3) }

// requireOldFormat checks that testdata/v<version>.gfds, written by a build
// of that format, fails as ErrVersion and not as ErrCorrupt.
func requireOldFormat(t *testing.T, version uint32) {
	path := filepath.Join("testdata", fmt.Sprintf("v%d.gfds", version))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != version {
		t.Fatalf("fixture is format %d, want %d", v, version)
	}
	for _, opts := range [][]store.Option{nil, {store.SkipChecksums()}} {
		_, err := store.Decode(data, opts...)
		if !errors.Is(err, store.ErrVersion) || errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("Decode(format %d) = %v, want ErrVersion and not ErrCorrupt", version, err)
		}
	}
	if _, err := store.Open(context.Background(), path); !errors.Is(err, store.ErrVersion) {
		t.Fatalf("Open(format %d) = %v, want ErrVersion", version, err)
	}
}
