// Package store persists frozen graph snapshots in a versioned binary
// format (.gfds) and loads them back as zero-copy views over a read-only
// memory mapping. A Snapshot's backing storage is already flat and
// offset-based — CSR adjacency, interned symbol table, attribute tuple
// arena — so saving is a section-per-array dump and opening is page-table
// setup plus one parallel O(|V|+|E|+s) pass of sequential checks, never a
// rebuild: the integer validation scan runs on degree-balanced node
// ranges, the symbol directory Save wrote is checked on ranges of its own
// and the body checksums are verified beside them, while the opening
// goroutine copies the symbol table's three arrays (see Decode). No name
// is hashed on open.
//
// File layout (format version 4, all header/table scalars little-endian):
//
//	[0:4)   magic "GFDS"
//	[4:8)   format version (u32)
//	[8:12)  byte-order mark 0x01020304, written in NATIVE order — array
//	        sections are raw native-endian dumps, so a file written on a
//	        machine of the other endianness reads back 0x04030201 and is
//	        rejected as ErrVersion instead of decoding garbage
//	[12:16) section count (u32)
//	then    count × 32-byte section entries {id u32, _ u32, off u64,
//	        len u64, crc32c u32, _ u32}
//	then    crc32c of everything above (u32)
//	then    the sections, each starting at an 8-byte-aligned offset
//
// Per-section CRCs are Castagnoli CRC-32; the header+table CRC is always
// verified on open, body CRCs can be skipped (SkipChecksums) for trusted
// files. Unknown section ids are ignored so later minor revisions can add
// sections without a version bump; removing or reshaping a section, or
// adding one every reader needs, is a version bump; docs/SNAPSHOT_FORMAT.md
// records each. Version 4 keys each adjacency entry (graph.LabelKey) over
// the rank tables of sections 14 and 15. A file of an older version fails
// as ErrVersion, and re-saving its graph rewrites it (gfdgen -snapshot).
//
// The mapping is PROT_READ: nothing may ever write through a loaded
// snapshot's arrays. The graph packages uphold this by construction —
// Overlay borrows snapshot arenas strictly copy-on-write, and a mutation
// of the snapshot's source graph goes through its live overlay (see
// graph.AdoptFlat) — so a write through the mapping would be a bug, and
// on unix it faults loudly instead of corrupting the file.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"unsafe"

	"gfd/internal/graph"
)

// Typed failure classes. Every decode failure wraps one of these; callers
// branch with errors.Is.
var (
	// ErrCorrupt reports a structurally invalid file: bad magic, lying
	// section table, checksum mismatch, truncation, or an image that
	// fails the graph-invariant validation.
	ErrCorrupt = errors.New("store: corrupt snapshot file")

	// ErrVersion reports a well-formed header whose format version or
	// byte order this build cannot decode.
	ErrVersion = errors.New("store: unsupported snapshot format version")
)

const (
	magic         = "GFDS"
	formatVersion = 4
	byteOrderMark = 0x01020304

	headerSize   = 16
	sectionEntry = 32

	// maxSections bounds the section count a decoder will consider, so a
	// lying header cannot make it allocate or scan an absurd table.
	maxSections = 64
)

// Section ids of format version 4. All are required.
const (
	secMeta      = 1  // 4 × u64: numNodes, numEdges, numSyms, numAttrPairs
	secSymBlob   = 2  // concatenated symbol name bytes
	secSymOff    = 3  // []u32, numSyms+1: offsets into symblob
	secLabels    = 4  // []graph.Sym (i32), numNodes
	secAttrOff   = 5  // []i32, numNodes+1
	secAttrPairs = 6  // []graph.AttrPair, numAttrPairs
	secOutOff    = 7  // []i32, numNodes+1
	secOut       = 8  // []graph.CSREdge, numEdges; per node in (key, To) order
	secInOff     = 9  // []i32, numNodes+1
	secIn        = 10 // []graph.CSREdge, numEdges; ordered as secOut
	secClassOff  = 11 // []i32, numSyms+1
	secClasses   = 12 // []graph.NodeID (i32), numNodes
	secSymDir    = 13 // []graph.Sym (i32), numSyms: every code, in bytewise name order
	secEdgeRanks = 14 // []graph.Sym (i32): the edge label codes, in rank order
	secNodeRanks = 15 // []graph.Sym (i32): the node label codes, in rank order
	numSections  = 15
)

// secNames names each section in error messages.
var secNames = [numSections + 1]string{
	secMeta: "meta", secSymBlob: "symbol blob", secSymOff: "symbol offsets",
	secLabels: "labels", secAttrOff: "attr offsets", secAttrPairs: "attr pairs",
	secOutOff: "out offsets", secOut: "out", secInOff: "in offsets", secIn: "in",
	secClassOff: "class offsets", secClasses: "classes", secSymDir: "symbol directory",
	secEdgeRanks: "edge ranks", secNodeRanks: "node ranks",
}

// The raw-dump sections rely on these layouts exactly; a field added to
// either type must bump formatVersion. The index expressions compile only
// while the sizes are 8, making the dependency a build failure instead of
// a silently incompatible file.
var (
	_ = [1]struct{}{}[unsafe.Sizeof(graph.CSREdge{})-8]
	_ = [1]struct{}{}[unsafe.Sizeof(graph.AttrPair{})-8]
	_ = [1]struct{}{}[unsafe.Sizeof(graph.Sym(0))-4]
	_ = [1]struct{}{}[unsafe.Sizeof(graph.NodeID(0))-4]
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// options collects Open/Decode behavior toggles.
type options struct {
	skipBodyCRC bool
}

// Option configures Open and Decode.
type Option func(*options)

// SkipChecksums disables per-section body checksum verification on open:
// it skips the CRC pass over the body bytes, and nothing else. The header
// and section-table checksum is still verified, and the full structural
// validation still runs, which reads every section anyway — so it trades
// detection of bit rot that leaves the image valid (a flipped attribute
// value, say) for the CRC's share of the open, not for untouched pages.
// Default is to verify everything.
func SkipChecksums() Option { return func(o *options) { o.skipBodyCRC = true } }

// corruptf wraps a decode failure detail into ErrCorrupt.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// align8 rounds n up to the next multiple of 8.
func align8(n int) int { return (n + 7) &^ 7 }

// viewOf reinterprets a byte section as a typed slice without copying.
// The caller has verified length and 8-alignment of the section start.
func viewOf[T any](b []byte, count int) []T {
	if count == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), count)
}

// bytesOf reinterprets a typed slice as its raw bytes without copying.
func bytesOf[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// sectionEntryAt parses the i-th section table entry.
func sectionEntryAt(table []byte, i int) (id uint32, off, ln uint64, crc uint32) {
	e := table[i*sectionEntry:]
	id = binary.LittleEndian.Uint32(e[0:4])
	off = binary.LittleEndian.Uint64(e[8:16])
	ln = binary.LittleEndian.Uint64(e[16:24])
	crc = binary.LittleEndian.Uint32(e[24:28])
	return
}

// Decode reconstructs a snapshot from the raw bytes of a .gfds file. The
// returned snapshot's arrays are views into data — the caller must keep
// data alive (and unmodified) for the snapshot's lifetime; Open handles
// that pairing. Decode never trusts an on-disk length: every offset and
// count is bounds-checked against len(data) and the meta section before
// any slice is formed, and the full graph-invariant validation runs before
// the snapshot is returned, so corrupt input yields ErrCorrupt (or
// ErrVersion), never a panic or an oversized allocation.
//
// The header, table and length checks run serially; then the body
// checksums are tasks of graph.AdoptFlatBeside's parallel pass, beside its
// validation ranges and symbol directory ranges, on up to GOMAXPROCS
// goroutines. The error returned does not depend on that: a checksum
// mismatch outranks a structural error, which outranks a symbol-table
// error. The symbol table is the one copy (see graph.AdoptFlat): names
// never alias data.
func Decode(data []byte, opts ...Option) (*graph.Snapshot, error) {
	var o options
	for _, f := range opts {
		f(&o)
	}
	if len(data) > 0 && uintptr(unsafe.Pointer(&data[0]))%8 != 0 {
		// Arbitrary caller-supplied buffers (fuzzing, embedded copies) may
		// be misaligned for the typed views; realign with a copy. Mappings
		// are page-aligned and never take this path.
		aligned := make([]uint64, (len(data)+7)/8)
		n := copy(unsafe.Slice((*byte)(unsafe.Pointer(&aligned[0])), len(data)), data)
		data = unsafe.Slice((*byte)(unsafe.Pointer(&aligned[0])), n)
	}

	if len(data) < headerSize {
		return nil, corruptf("file shorter than header (%d bytes)", len(data))
	}
	if string(data[0:4]) != magic {
		return nil, corruptf("bad magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != formatVersion {
		return nil, fmt.Errorf("%w: file is format %d, this build reads %d", ErrVersion, v, formatVersion)
	}
	if bom := *(*uint32)(unsafe.Pointer(&data[8])); bom != byteOrderMark {
		return nil, fmt.Errorf("%w: byte-order mark %#x (file written on a machine of different endianness)", ErrVersion, bom)
	}
	count := int(binary.LittleEndian.Uint32(data[12:16]))
	if count < numSections || count > maxSections {
		return nil, corruptf("section count %d outside [%d, %d]", count, numSections, maxSections)
	}
	tableEnd := headerSize + count*sectionEntry
	if len(data) < tableEnd+4 {
		return nil, corruptf("file truncated inside section table")
	}
	if got, want := crc32.Checksum(data[:tableEnd], castagnoli), binary.LittleEndian.Uint32(data[tableEnd:tableEnd+4]); got != want {
		return nil, corruptf("header checksum mismatch (%#x != %#x)", got, want)
	}

	// Resolve the table into per-id byte sections, rejecting duplicates,
	// out-of-file ranges, and misaligned starts. Unknown ids are skipped.
	table := data[headerSize:tableEnd]
	var secs [numSections + 1][]byte
	var bodies []body // table order: the first mismatch reported is the table's first
	seen := [numSections + 1]bool{}
	for i := 0; i < count; i++ {
		id, off, ln, crc := sectionEntryAt(table, i)
		if id == 0 || id > numSections {
			continue
		}
		if seen[id] {
			return nil, corruptf("duplicate section %d", id)
		}
		if off%8 != 0 || off < uint64(tableEnd+4) || off > uint64(len(data)) || ln > uint64(len(data))-off {
			return nil, corruptf("section %d claims [%d, +%d) outside file of %d bytes", id, off, ln, len(data))
		}
		seen[id] = true
		secs[id] = data[off : off+ln]
		bodies = append(bodies, body{int(id), secs[id], crc})
	}

	// Body checksums run as tasks of graph.AdoptFlatBeside's parallel
	// validation pass, and a mismatch outranks any structural error: an
	// error return before that pass checks them first, serially, so the
	// error a corrupt file yields is fixed, whatever the scheduling.
	var crcs []func() error
	if !o.skipBodyCRC {
		for _, b := range bodies {
			crcs = append(crcs, b.check)
		}
	}
	fail := func(err error) (*graph.Snapshot, error) {
		for _, check := range crcs {
			if cerr := check(); cerr != nil {
				return nil, cerr
			}
		}
		return nil, err
	}
	for id := 1; id <= numSections; id++ {
		if !seen[id] {
			return fail(corruptf("missing section %d (%s)", id, secNames[id]))
		}
	}

	// Meta fixes every array's element count; each section's byte length
	// must then agree exactly. Counts are bounded to int32 territory (the
	// in-memory representation is int32-indexed) before any conversion.
	meta := secs[secMeta]
	if len(meta) != 32 {
		return fail(corruptf("meta section is %d bytes, want 32", len(meta)))
	}
	var counts [4]uint64
	for i := range counts {
		counts[i] = binary.LittleEndian.Uint64(meta[i*8:])
		if counts[i] > 1<<31-1 {
			return fail(corruptf("meta count %d = %d exceeds int32", i, counts[i]))
		}
	}
	numNodes, numEdges, numSyms, numPairs := int(counts[0]), int(counts[1]), int(counts[2]), int(counts[3])
	if numSyms == 0 {
		return fail(corruptf("empty symbol table"))
	}
	checkLen := func(id int, elems, elemSize int) ([]byte, error) {
		if want := uint64(elems) * uint64(elemSize); uint64(len(secs[id])) != want {
			return nil, corruptf("section %d (%s) is %d bytes, want %d", id, secNames[id], len(secs[id]), want)
		}
		return secs[id], nil
	}

	symOffB, err := checkLen(secSymOff, numSyms+1, 4)
	if err != nil {
		return fail(err)
	}
	// The symbol offsets are checked here, before the other sections'
	// lengths, as they always were (graph.AdoptFlat checks them again):
	// a file with several faults keeps reporting the same one.
	symOff := viewOf[uint32](symOffB, numSyms+1)
	blob := secs[secSymBlob]
	if symOff[0] != 0 {
		return fail(corruptf("symbol offsets start at %d", symOff[0]))
	}
	for i := 1; i <= numSyms; i++ {
		if symOff[i] < symOff[i-1] {
			return fail(corruptf("symbol offsets decrease at %d", i))
		}
	}
	if int(symOff[numSyms]) != len(blob) {
		return fail(corruptf("symbol offsets end at %d, blob holds %d bytes", symOff[numSyms], len(blob)))
	}

	// A rank table's length is its own: any whole number of codes.
	numEdgeRanks, numNodeRanks := len(secs[secEdgeRanks])/4, len(secs[secNodeRanks])/4
	sections := []struct {
		id, elems, elemSize int
	}{
		{secLabels, numNodes, 4},
		{secAttrOff, numNodes + 1, 4},
		{secAttrPairs, numPairs, 8},
		{secOutOff, numNodes + 1, 4},
		{secOut, numEdges, 8},
		{secInOff, numNodes + 1, 4},
		{secIn, numEdges, 8},
		{secClassOff, numSyms + 1, 4},
		{secClasses, numNodes, 4},
		{secSymDir, numSyms, 4},
		{secEdgeRanks, numEdgeRanks, 4},
		{secNodeRanks, numNodeRanks, 4},
	}
	for _, s := range sections {
		if _, err := checkLen(s.id, s.elems, s.elemSize); err != nil {
			return fail(err)
		}
	}

	f := graph.Flat{
		SymBlob:    blob,
		SymOff:     symOff,
		SymDir:     viewOf[graph.Sym](secs[secSymDir], numSyms),
		EdgeLabels: viewOf[graph.Sym](secs[secEdgeRanks], numEdgeRanks),
		NodeLabels: viewOf[graph.Sym](secs[secNodeRanks], numNodeRanks),
		Labels:     viewOf[graph.Sym](secs[secLabels], numNodes),
		AttrOff:    viewOf[int32](secs[secAttrOff], numNodes+1),
		AttrPairs:  viewOf[graph.AttrPair](secs[secAttrPairs], numPairs),
		OutOff:     viewOf[int32](secs[secOutOff], numNodes+1),
		Out:        viewOf[graph.CSREdge](secs[secOut], numEdges),
		InOff:      viewOf[int32](secs[secInOff], numNodes+1),
		In:         viewOf[graph.CSREdge](secs[secIn], numEdges),
		ClassOff:   viewOf[int32](secs[secClassOff], numSyms+1),
		Classes:    viewOf[graph.NodeID](secs[secClasses], numNodes),
	}
	snap, err := graph.AdoptFlatBeside(f, crcs)
	if errors.Is(err, ErrCorrupt) {
		return nil, err // a checksum mismatch
	}
	if err != nil {
		// %w twice: a label-space overflow is ErrLabelSpace as well.
		return nil, fmt.Errorf("%w: invalid snapshot image: %w", ErrCorrupt, err)
	}
	return snap, nil
}

// body is one section's bytes and its recorded checksum.
type body struct {
	id  int
	b   []byte
	crc uint32
}

// check verifies the section's checksum.
func (s body) check() error {
	if got := crc32.Checksum(s.b, castagnoli); got != s.crc {
		return corruptf("section %d (%s) checksum mismatch (%#x != %#x)", s.id, secNames[s.id], got, s.crc)
	}
	return nil
}
