package store

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"gfd/internal/graph"
)

// Save writes the snapshot to path in the .gfds format, atomically: the
// bytes go to a temp file in the target directory, are fsynced, and the
// rename (plus a directory fsync) publishes the file — a crash mid-save
// leaves either the old file or none, never a torn one. The array
// sections are written straight from the snapshot's backing storage (no
// staging copy); output is deterministic for a given snapshot, so
// freezes of the same graph at any worker count save byte-identical
// files. Cancellation is checked between sections; a canceled save
// removes its temp file and returns ctx.Err(). An Overlay's patched view
// is refused with graph.ErrPatchedView before anything is written, and so
// is a snapshot the format cannot hold (see packMeta).
func Save(ctx context.Context, s *graph.Snapshot, path string) (err error) {
	if s == nil {
		return fmt.Errorf("store: cannot save nil snapshot")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	f, err := s.Flat()
	if err != nil {
		return fmt.Errorf("store: save %s: %w", path, err)
	}

	// Every payload dumps an existing array; the symbol table's three are
	// the table's own (Flat builds its directory if a freeze or interning
	// since adoption left it behind).
	meta, err := packMeta(len(f.Labels), len(f.Out), f.NumSyms(), len(f.AttrPairs), len(f.SymBlob))
	if err != nil {
		return fmt.Errorf("store: save %s: %w", path, err)
	}

	payloads := [numSections][]byte{
		secMeta - 1:      meta[:],
		secSymBlob - 1:   f.SymBlob,
		secSymOff - 1:    bytesOf(f.SymOff),
		secLabels - 1:    bytesOf(f.Labels),
		secAttrOff - 1:   bytesOf(f.AttrOff),
		secAttrPairs - 1: bytesOf(f.AttrPairs),
		secOutOff - 1:    bytesOf(f.OutOff),
		secOut - 1:       bytesOf(f.Out),
		secInOff - 1:     bytesOf(f.InOff),
		secIn - 1:        bytesOf(f.In),
		secClassOff - 1:  bytesOf(f.ClassOff),
		secClasses - 1:   bytesOf(f.Classes),
		secSymDir - 1:    bytesOf(f.SymDir),
		secEdgeRanks - 1: bytesOf(f.EdgeLabels),
		secNodeRanks - 1: bytesOf(f.NodeLabels),
	}

	// Lay out sections and build the header + table in memory (a few KB),
	// so the file is written front to back in one pass.
	tableEnd := headerSize + numSections*sectionEntry
	head := make([]byte, tableEnd+4)
	copy(head[0:4], magic)
	binary.LittleEndian.PutUint32(head[4:8], formatVersion)
	bom := uint32(byteOrderMark)
	copy(head[8:12], bytesOf([]uint32{bom}))
	binary.LittleEndian.PutUint32(head[12:16], numSections)
	pos := align8(tableEnd + 4)
	offsets := [numSections]int{}
	for i, p := range payloads {
		e := head[headerSize+i*sectionEntry:]
		binary.LittleEndian.PutUint32(e[0:4], uint32(i+1))
		binary.LittleEndian.PutUint64(e[8:16], uint64(pos))
		binary.LittleEndian.PutUint64(e[16:24], uint64(len(p)))
		binary.LittleEndian.PutUint32(e[24:28], crc32.Checksum(p, castagnoli))
		offsets[i] = pos
		pos = align8(pos + len(p))
	}
	binary.LittleEndian.PutUint32(head[tableEnd:], crc32.Checksum(head[:tableEnd], castagnoli))

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".gfds-tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	w := bufio.NewWriterSize(tmp, 1<<20)
	if _, err = w.Write(head); err != nil {
		return err
	}
	written := len(head)
	var pad [8]byte
	for i, p := range payloads {
		if err = ctx.Err(); err != nil {
			return err
		}
		if gap := offsets[i] - written; gap > 0 {
			if _, err = w.Write(pad[:gap]); err != nil {
				return err
			}
			written += gap
		}
		if _, err = w.Write(p); err != nil {
			return err
		}
		written += len(p)
	}
	if err = w.Flush(); err != nil {
		return err
	}
	// fsync-on-save: the data must be durable before the rename publishes
	// it, and the rename itself before Save reports success.
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, derr := os.Open(dir); derr == nil {
		// Directory fsync makes the rename durable; some filesystems
		// reject Sync on a directory handle, which is not a save failure.
		d.Sync()
		d.Close()
	}
	return nil
}

// packMeta packs the meta section's counts: nodes, edges, symbols and
// attribute pairs. It refuses what Decode would reject — a count past
// int32, or more name bytes than the symbol offsets' uint32 reach — so
// Save never publishes a file it cannot read back.
func packMeta(nodes, edges, syms, pairs, nameBytes int) ([32]byte, error) {
	var meta [32]byte
	for i, c := range [4]int{nodes, edges, syms, pairs} {
		if c < 0 || c > math.MaxInt32 {
			return meta, fmt.Errorf("meta count %d = %d exceeds int32", i, c)
		}
		binary.LittleEndian.PutUint64(meta[8*i:], uint64(c))
	}
	if nameBytes < 0 || uint64(nameBytes) > math.MaxUint32 {
		return meta, fmt.Errorf("symbol names hold %d bytes, past the format's uint32 offsets", nameBytes)
	}
	return meta, nil
}
