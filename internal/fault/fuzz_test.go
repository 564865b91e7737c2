package fault

import (
	"strings"
	"testing"
	"time"
)

// FuzzDecodePlan feeds arbitrary strings to the decoder a worker process
// runs on its environment: it must return a plan or an error, never panic;
// a decoded plan holds at most one rule per field, re-encodes to a fixed
// point, and arms.
func FuzzDecodePlan(f *testing.F) {
	f.Add(NewPlan(99).KillProcess(1, 2).StallPipe(0, 4, 30*time.Second).TruncateMessage(3, 1).
		DelayUnit(7, 2*time.Millisecond).KillWorker(2, 0).PanicAt(Match, 5).Encode())
	f.Add("")
	f.Add("v1;seed=1")
	f.Add("v1;seed=1;kill,1")
	f.Add("v1;panic,255,1;stall,-1,-1,-1")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := DecodePlan(s)
		if err != nil {
			return
		}
		if p.Len() > strings.Count(s, ";") {
			t.Fatalf("%d rules decoded from %q", p.Len(), s)
		}
		enc := p.Encode()
		q, err := DecodePlan(enc)
		if err != nil {
			t.Fatalf("re-decoding %q (from %q): %v", enc, s, err)
		}
		if q.Encode() != enc {
			t.Fatalf("encoding of %q is not a fixed point: %q then %q", s, enc, q.Encode())
		}
		_ = p.String()
		in := p.Arm(4)
		in.ProcKill(0, 0)
		in.CrossPipe(0)
	})
}
