package main

import (
	"context"
	"errors"
	"strings"
	"testing"

	"gfd"
)

// TestSnapshotVersionHint: a snapshot file of an older format fails to
// open as gfd.ErrSnapshotVersion, and gfdcheck's message says how to
// regenerate it.
func TestSnapshotVersionHint(t *testing.T) {
	path := "../../internal/store/testdata/v2.gfds"
	_, _, err := gfd.OpenSnapshot(context.Background(), path)
	if !errors.Is(err, gfd.ErrSnapshotVersion) {
		t.Fatalf("OpenSnapshot(format 2 file) = %v, want ErrSnapshotVersion", err)
	}
	msg := snapshotErr(path, err)
	if !errors.Is(msg, gfd.ErrSnapshotVersion) || !strings.Contains(msg.Error(), "gfdgen -snapshot") {
		t.Fatalf("message %q does not keep the error and name gfdgen -snapshot", msg)
	}
	if other := errors.New("boom"); snapshotErr(path, other) != other {
		t.Fatal("snapshotErr changed an error of another kind")
	}
}
