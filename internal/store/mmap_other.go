//go:build !linux && !darwin

package store

import (
	"io"
	"os"
	"unsafe"
)

// mapFile reads path fully into an 8-aligned heap buffer on platforms
// without the mmap path. Semantics match the unix version except that
// the arrays are plain heap memory, Close is a no-op for the garbage
// collector's benefit only, and writes through them would not fault (the read-only contract is upheld by the graph packages, not the
// hardware).
func mapFile(path string) (data []byte, release func() error, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := int(st.Size())
	if size == 0 {
		return nil, func() error { return nil }, nil
	}
	// A []uint64 backing guarantees the 8-byte alignment the typed views
	// need; a plain make([]byte) does not for all sizes.
	buf := make([]uint64, (size+7)/8)
	data = unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, nil, err
	}
	return data, func() error { return nil }, nil
}
