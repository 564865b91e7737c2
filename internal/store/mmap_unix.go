//go:build linux || darwin

package store

import (
	"fmt"
	"os"
	"syscall"
)

// mapFile maps path read-only. The returned bytes are a PROT_READ /
// MAP_PRIVATE view — any write through them faults — and stay valid until
// the returned release function runs. An empty file maps to an empty
// slice (Decode rejects it as truncated).
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
	size := st.Size()
	if size == 0 {
		return nil, func() error { return nil }, nil
	}
	if size != int64(int(size)) {
		return nil, nil, fmt.Errorf("store: %s: file size %d exceeds address space", path, size)
	}
	data, err = syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("store: mmap %s: %w", path, err)
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}
