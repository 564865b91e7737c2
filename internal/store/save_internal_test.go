package store

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// TestPackMetaRefusesWhatDecodeRejects: Save packs the meta section
// before it creates its temp file, and refuses counts Decode would reject
// — past int32, or more name bytes than the uint32 symbol offsets reach —
// so it never publishes a file it cannot read back. Lengths are
// synthetic: no table of that size is built.
func TestPackMetaRefusesWhatDecodeRejects(t *testing.T) {
	meta, err := packMeta(3, 5, 7, 11, math.MaxUint32)
	if err != nil {
		t.Fatalf("packMeta at the limits: %v", err)
	}
	for i, want := range []uint64{3, 5, 7, 11} {
		if got := binary.LittleEndian.Uint64(meta[8*i:]); got != want {
			t.Fatalf("meta count %d = %d, want %d", i, got, want)
		}
	}
	for name, tc := range map[string]struct {
		counts [5]int
		want   string
	}{
		"nodes past int32":   {[5]int{math.MaxInt32 + 1, 0, 1, 0, 1}, "meta count 0"},
		"edges past int32":   {[5]int{1, math.MaxInt32 + 1, 1, 0, 1}, "meta count 1"},
		"symbols past int32": {[5]int{1, 0, math.MaxInt32 + 1, 0, 1}, "meta count 2"},
		"pairs past int32":   {[5]int{1, 0, 1, math.MaxInt32 + 1, 1}, "meta count 3"},
		"names past 4 GiB":   {[5]int{1, 0, 1, 0, math.MaxUint32 + 1}, "symbol names hold"},
	} {
		c := tc.counts
		if _, err := packMeta(c[0], c[1], c[2], c[3], c[4]); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: packMeta error = %v, want one naming %q", name, err, tc.want)
		}
	}
}
