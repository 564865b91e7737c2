package dist

// Tests of the protocol's edges: a worker refuses a HELLO of another
// version, and a malformed ASSIGN — a range outside the worker's class, or
// a range count other than the group's pivot count — ends the worker with
// a protocol error that the run survives.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gfd/internal/cluster"
	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/validate"
)

// frames concatenates encoded frames into one worker stdin.
func frames(t *testing.T, fs ...func(fw *frameWriter) error) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	fw := &frameWriter{w: bufio.NewWriter(&buf)}
	for _, f := range fs {
		if err := f(fw); err != nil {
			t.Fatal(err)
		}
	}
	return &buf
}

// fixturePlan is the fixture's DistPlan, as a fault-free spied run hands
// it to the fleet.
func fixturePlan(t *testing.T, f *fixture) *validate.DistPlan {
	t.Helper()
	_, s, err := detectSpied(context.Background(), f.b, distOpt(f), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s.fleet.plan
}

// helloFor is the HELLO the fleet sends worker 0 of the fixture.
func helloFor(t *testing.T, f *fixture, plan *validate.DistPlan, proto uint32) helloMsg {
	t.Helper()
	m, err := LoadManifest(f.manifest)
	if err != nil {
		t.Fatal(err)
	}
	var rules strings.Builder
	if err := core.WriteRules(&rules, plan.Set); err != nil {
		t.Fatal(err)
	}
	return helloMsg{proto: proto, worker: 0, numNodes: m.NumNodes,
		heartbeat: time.Second, combine: plan.Combine,
		shardPath: m.Shards[0], rules: rules.String(), groups: plan.Groups}
}

// TestWorkerRefusesV1Hello: a HELLO of any protocol version but 4 ends the
// worker with exitProtocol before it opens its shard — version 1, whose
// ASSIGN carried pivot candidates, not class ranges, version 2, whose DONE
// carried two counts more and whose coordinator waited for a CENSUS, and
// version 3, whose HELLO carried the fleet size.
func TestWorkerRefusesV1Hello(t *testing.T) {
	f := setup(t)
	plan := fixturePlan(t, f)
	for _, v := range []uint32{1, 2, 3, 5} {
		h := helloFor(t, f, plan, v)
		stdin := frames(t, func(fw *frameWriter) error { return fw.write(fHello, encodeHello(h)) })
		var stdout, stderr bytes.Buffer
		if code := workerMain(stdin, &stdout, &stderr); code != exitProtocol {
			t.Fatalf("v%d HELLO: worker exited %d, want %d (%s)", v, code, exitProtocol, stderr.String())
		}
		if want := fmt.Sprintf("protocol version %d, want 4", v); !strings.Contains(stderr.String(), want) || stdout.Len() != 0 {
			t.Fatalf("v%d HELLO: stderr %q, %d bytes of stdout; want %q and no READY", v, stderr.String(), stdout.Len(), want)
		}
	}
}

// TestWorkerRejectsBadChunk: an ASSIGN whose range runs past the worker's
// own class, or whose range count is not the group's pivot count, ends the
// worker with exitProtocol after its READY — and a run whose first ASSIGN
// to a slot is such a chunk recovers, through respawn, to the fault-free
// violation set.
func TestWorkerRejectsBadChunk(t *testing.T) {
	f := setup(t)
	plan := fixturePlan(t, f)
	good := plan.Unit(busyQueue(0)[0])
	past := good
	past.Ranges = append([]validate.Range(nil), good.Ranges...)
	past.Ranges[0].Hi = 1 << 30
	extra := good
	extra.Ranges = append(append([]validate.Range(nil), good.Ranges...), validate.Range{})
	h := helloFor(t, f, plan, protoVersion)
	for name, bad := range map[string]validate.Unit{"range past the class": past, "extra range": extra} {
		stdin := frames(t,
			func(fw *frameWriter) error { return fw.write(fHello, encodeHello(h)) },
			func(fw *frameWriter) error { return fw.write(fAssign, encodeAssign(nil, assignMsg{unit: bad})) })
		var stdout, stderr bytes.Buffer
		if code := workerMain(stdin, &stdout, &stderr); code != exitProtocol {
			t.Fatalf("%s: worker exited %d, want %d (%s)", name, code, exitProtocol, stderr.String())
		}
		if !strings.Contains(stderr.String(), validate.ErrBadUnit.Error()) {
			t.Fatalf("%s: stderr %q does not name the malformed unit", name, stderr.String())
		}
		fr := &frameReader{r: bufio.NewReader(&stdout)}
		if typ, _, err := fr.read(); err != nil || typ != fReady {
			t.Fatalf("%s: worker wrote frame %d (%v) first, want READY", name, typ, err)
		}
	}

	// The same malformed chunk from a coordinator: slot 0's first ASSIGN
	// ends its process, and the unit, described correctly the second time,
	// runs again elsewhere.
	m, err := LoadManifest(f.manifest)
	if err != nil {
		t.Fatal(err)
	}
	opt := distOpt(f)
	opt.N = m.Workers
	var once sync.Once
	res, err := validate.DetectOver(context.Background(), f.b, opt, nil, func(p *validate.DistPlan, cl *cluster.Cluster) (validate.Executor, error) {
		fl, err := newFleet(context.Background(), f.b.Topo(), m, p, opt, cl)
		if err != nil {
			return nil, err
		}
		fl.describe = func(ui int) validate.Unit {
			u := p.Unit(ui)
			once.Do(func() {
				u.Ranges = append([]validate.Range(nil), u.Ranges...)
				u.Ranges[0].Hi = 1 << 30
			})
			return u
		}
		return fl, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violations.Equal(f.base) {
		t.Fatalf("run with a malformed chunk diverged: %d violations, fault-free %d", len(res.Violations), len(f.base))
	}
	if c := res.Completeness; c.WorkerDeaths != 1 || !c.Complete() {
		t.Fatalf("malformed chunk: census %+v, want one death and a complete run", c)
	}
}

// TestWorkerRejectsBadHalo: an ASSIGN whose halo names a node outside the
// worker's shard — past its node count, or past what a NodeID holds — ends
// the worker with exitProtocol and a message after its READY, not with a
// panic in the overlay.
func TestWorkerRejectsBadHalo(t *testing.T) {
	f := setup(t)
	plan := fixturePlan(t, f)
	unit := plan.Unit(busyQueue(0)[0])
	h := helloFor(t, f, plan, protoVersion)
	n := graph.NodeID(h.numNodes)
	for name, c := range map[string]struct {
		halo []haloNode
		want string
	}{
		"node past the shard":    {[]haloNode{{id: n, attrs: [][2]string{{"val", "x"}}}}, "outside the shard"},
		"edge past the shard":    {[]haloNode{{id: 0, out: []haloEdge{{to: n + 5, label: "e"}}}}, "outside the shard"},
		"in-edge past the shard": {[]haloNode{{id: 0, in: []haloEdge{{to: n, label: "e"}}}}, "outside the shard"},
		"negative node":          {[]haloNode{{id: -1}}, "node ID out of range"},
	} {
		stdin := frames(t,
			func(fw *frameWriter) error { return fw.write(fHello, encodeHello(h)) },
			func(fw *frameWriter) error {
				return fw.write(fAssign, encodeAssign(nil, assignMsg{unit: unit, halo: c.halo}))
			})
		var stdout, stderr bytes.Buffer
		if code := workerMain(stdin, &stdout, &stderr); code != exitProtocol {
			t.Fatalf("%s: worker exited %d, want %d (%s)", name, code, exitProtocol, stderr.String())
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Fatalf("%s: stderr %q does not say %q", name, stderr.String(), c.want)
		}
		fr := &frameReader{r: bufio.NewReader(&stdout)}
		if typ, _, err := fr.read(); err != nil || typ != fReady {
			t.Fatalf("%s: worker wrote frame %d (%v) first, want READY", name, typ, err)
		}
	}
}

// TestCoordinatorRejectsMatchPastGraph: a VIO whose match names a node at
// or past the graph's node count is out of protocol.
func TestCoordinatorRejectsMatchPastGraph(t *testing.T) {
	fl := &fleet{manifest: &Manifest{NumNodes: 10}}
	if err := fl.checkMatches([]validate.Violation{{Rule: "r", Match: core.Match{0, 9}}}); err != nil {
		t.Fatalf("a match inside the graph: %v", err)
	}
	for _, id := range []graph.NodeID{10, 11, -1} {
		if err := fl.checkMatches([]validate.Violation{{Rule: "r", Match: core.Match{0, id}}}); err == nil {
			t.Errorf("a match naming node %d of a 10-node graph passed", id)
		}
	}
}
