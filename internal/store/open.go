package store

import (
	"context"
	"sync"

	"gfd/internal/graph"
)

// Loaded is an open snapshot file: the decoded snapshot plus the mapping
// (or read buffer) backing its arrays. The snapshot is valid until Close;
// closing while the snapshot is still in use unmaps memory out from under
// it, so a Loaded must outlive every session and overlay derived from the
// snapshot — unless the graph has migrated off the mapping first (any
// mutation does; see graph.AdoptFlat).
type Loaded struct {
	snap  *graph.Snapshot
	unmap func() error
	once  sync.Once
	err   error
}

// Snapshot returns the loaded snapshot.
func (l *Loaded) Snapshot() *graph.Snapshot { return l.snap }

// Close releases the mapping. Idempotent; returns the first error.
func (l *Loaded) Close() error {
	l.once.Do(func() {
		if l.unmap != nil {
			l.err = l.unmap()
		}
	})
	return l.err
}

// Open maps the file at path read-only and decodes it (see Decode for the
// validation contract). On unix the snapshot's arrays are zero-copy views
// over a PROT_READ mapping — open cost is page-table setup plus one
// parallel pass of validation, symbol directory checks and checksums over
// the file, independent of how much of the graph is ever touched;
// elsewhere the file is read into memory. The returned Loaded owns the
// mapping; see its contract for lifetime. Cancellation is honored at the
// syscall boundaries.
func Open(ctx context.Context, path string, opts ...Option) (*Loaded, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	data, unmap, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		unmap()
		return nil, err
	}
	snap, err := Decode(data, opts...)
	if err != nil {
		unmap()
		return nil, err
	}
	return &Loaded{snap: snap, unmap: unmap}, nil
}
