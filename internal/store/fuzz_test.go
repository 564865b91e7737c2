package store_test

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"gfd/internal/fragment"
	"gfd/internal/graph"
	"gfd/internal/store"
)

// FuzzDecode throws arbitrary bytes at the decoder. The contract under
// fuzzing: Decode either returns a structurally valid snapshot or a typed
// error (ErrCorrupt / ErrVersion) — never a panic, never an allocation
// sized from an unvalidated on-disk length (a lying length would either
// fail a bounds check or OOM the fuzzer, which counts as a crash). A
// returned snapshot must survive a full accessor walk.
func FuzzDecode(f *testing.F) {
	// Seed with a pristine file and targeted mutations of it, so the
	// fuzzer starts at the format's cliff edges instead of random noise.
	g := graph.New(8, 16)
	a := g.AddNode("person", graph.Attrs{"name": "ann"})
	b := g.AddNode("person", graph.Attrs{"name": "bob"})
	c := g.AddNode("city", nil)
	d := g.AddNode("city", nil)
	g.MustAddEdge(a, b, "knows")
	g.MustAddEdge(a, c, "in")
	g.MustAddEdge(a, d, "in")
	g.MustAddEdge(b, c, "in")
	path := filepath.Join(f.TempDir(), "seed.gfds")
	if err := store.Save(context.Background(), g.Freeze(), path); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:17])
	f.Add([]byte("GFDS"))
	f.Add([]byte{})
	// Shard-sized degenerates: an empty fragment shard (full node table,
	// zero-length attribute and adjacency sections — what the distributed
	// runtime writes for a fragment owning nothing) and the zero-node
	// snapshot. Seeding them puts the fuzzer right at the zero-length
	// section edges.
	shardPaths, err := fragment.SaveShards(context.Background(), g.Freeze(),
		make([]int, g.NumNodes()), 2, f.TempDir(), "shard")
	if err != nil {
		f.Fatal(err)
	}
	emptyShard, err := os.ReadFile(shardPaths[1])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(emptyShard)
	zeroNode := filepath.Join(f.TempDir(), "zero.gfds")
	if err := store.Save(context.Background(), graph.New(0, 0).Freeze(), zeroNode); err != nil {
		f.Fatal(err)
	}
	zn, err := os.ReadFile(zeroNode)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(zn)
	for _, mut := range []func([]byte){
		func(b []byte) { binary.LittleEndian.PutUint32(b[4:8], 1) },         // past version
		func(b []byte) { binary.LittleEndian.PutUint32(b[4:8], 2) },         // the version before the symbol directory
		func(b []byte) { binary.LittleEndian.PutUint32(b[4:8], 3) },         // the version before keys
		func(b []byte) { binary.LittleEndian.PutUint32(b[4:8], 5) },         // future version
		func(b []byte) { binary.LittleEndian.PutUint32(b[12:16], 64) },      // count high
		func(b []byte) { binary.LittleEndian.PutUint64(b[24:], 1<<60) },     // huge offset
		func(b []byte) { binary.LittleEndian.PutUint64(b[32:], 1<<60) },     // huge length
		func(b []byte) { b[len(b)-1] ^= 0xff },                              // tail flip
		func(b []byte) { binary.LittleEndian.PutUint64(b[16+32+16:], 1e9) }, // lying section len
		func(b []byte) { swapDirEntries(b) },                                // mis-sorted symbol directory
	} {
		c := append([]byte(nil), good...)
		mut(c)
		f.Add(c)
	}

	// The same mis-sorted directory with every checksum re-signed, so the
	// fuzzer starts past the checksums at the directory check itself; and
	// so re-signed, format 4's key breaks: a key naming the wrong neighbour
	// rank, an edge rank out of range, a rank table repeating a code, and
	// two entries under one key out of neighbour order.
	for _, mut := range []func([]byte){
		swapDirEntries,
		func(b []byte) { b[sectionAt(b, secOut)+4] ^= 1 },
		func(b []byte) { b[sectionAt(b, secOut)+7] = 0x7f },
		func(b []byte) { copy(b[sectionAt(b, secNodeRk)+4:], b[sectionAt(b, secNodeRk):][:4]) },
		func(b []byte) { // a -in-> c and a -in-> d share a key
			o := sectionAt(b, secOut)
			var e [8]byte
			copy(e[:], b[o+8:o+16])
			copy(b[o+8:o+16], b[o+16:o+24])
			copy(b[o+16:o+24], e[:])
		},
	} {
		c := append([]byte(nil), good...)
		mut(c)
		resign(c)
		f.Add(c)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := store.Decode(data)
		if err != nil {
			if !errors.Is(err, store.ErrCorrupt) && !errors.Is(err, store.ErrVersion) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// Accepted input: the snapshot must be internally consistent
		// enough to walk every accessor without panicking.
		n := s.NumNodes()
		syms := s.Syms()
		for v := 0; v < n; v++ {
			id := graph.NodeID(v)
			_ = syms.Name(s.Label(id))
			for _, e := range s.Out(id) {
				_ = syms.Name(s.EdgeLabel(e.Label))
				_ = s.Label(e.To)
			}
			for _, e := range s.In(id) {
				_ = s.Label(e.To)
			}
			for _, p := range s.AttrPairs(id) {
				_ = syms.Name(p.Name)
				_ = syms.Name(p.Val)
			}
		}
		for l := 0; l < syms.Len(); l++ {
			for _, v := range s.NodesWith(graph.Sym(l)) {
				if s.Label(v) != graph.Sym(l) {
					t.Fatalf("class %d contains node %d labeled %d", l, v, s.Label(v))
				}
			}
		}
	})
}

// swapDirEntries swaps the first two entries of a well-formed file's
// symbol directory.
func swapDirEntries(b []byte) {
	d := sectionAt(b, secSymDir)
	var tmp [4]byte
	copy(tmp[:], b[d:d+4])
	copy(b[d:d+4], b[d+4:d+8])
	copy(b[d+4:d+8], tmp[:])
}

// sectionAt returns the file offset of section id of a well-formed file.
func sectionAt(b []byte, id uint32) int {
	count := int(binary.LittleEndian.Uint32(b[12:16]))
	for i := 0; i < count; i++ {
		if e := b[16+i*32:]; binary.LittleEndian.Uint32(e[0:4]) == id {
			return int(binary.LittleEndian.Uint64(e[8:16]))
		}
	}
	panic("no such section")
}

// resign recomputes every section's body checksum and the header
// checksum of a file whose section table is well-formed.
func resign(b []byte) {
	table := crc32.MakeTable(crc32.Castagnoli)
	count := int(binary.LittleEndian.Uint32(b[12:16]))
	for i := 0; i < count; i++ {
		e := b[16+i*32:]
		off := binary.LittleEndian.Uint64(e[8:16])
		ln := binary.LittleEndian.Uint64(e[16:24])
		binary.LittleEndian.PutUint32(e[24:28], crc32.Checksum(b[off:off+ln], table))
	}
	end := 16 + count*32
	binary.LittleEndian.PutUint32(b[end:], crc32.Checksum(b[:end], table))
}
