package dist

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/store"
	"gfd/internal/validate"
)

// EnvWorker marks a process as a dist worker: any binary that calls
// MaybeWorker early in main becomes spawnable as a worker with no flags of
// its own. It is the one environment variable the coordinator and its
// workers share.
const EnvWorker = "GFD_DIST_WORKER"

// exitProtocol is a worker's exit status on a protocol or internal error;
// the coordinator reads any nonzero exit as a death.
const exitProtocol = 1

// vioBatch is how many violations a worker coalesces per fVio frame.
const vioBatch = 64

// answerDelay bounds how long a written answer (VIO, DONE) may wait in the
// worker's buffer for the answers of the units queued behind it: what a
// SIGKILL can lose of answered work (it is simply re-run — what the
// coordinator never received is in no skip count) and what a unit's deadline
// clock can start late by. A millisecond is noise against any deadline worth
// setting, and still a thousand units per flush.
const answerDelay = time.Millisecond

// MaybeWorker turns the current process into a dist worker when the
// environment says so, never returning in that case (the process exits
// with the worker's status). Call it first thing in main() — and in
// TestMain for any test binary the chaos suite re-executes.
func MaybeWorker() {
	if os.Getenv(EnvWorker) == "" {
		return
	}
	os.Exit(workerMain(os.Stdin, os.Stdout, os.Stderr))
}

// workerMain is the worker protocol loop: HELLO → open shard → READY →
// (ASSIGN → VIO* → DONE)* until the coordinator closes the pipe or kills
// the process. It deliberately recovers nothing: a panic crashes the
// process with a stack on stderr, which is exactly the failure mode the
// coordinator is built to detect and survive.
func workerMain(stdin io.Reader, stdout, stderr io.Writer) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "gfd-dist-worker: "+format+"\n", args...)
		return exitProtocol
	}
	fr := &frameReader{r: bufio.NewReaderSize(stdin, 1<<16)}
	typ, payload, err := fr.read()
	if err != nil {
		return fail("reading hello: %v", err)
	}
	if typ != fHello {
		return fail("first frame is type %d, want hello", typ)
	}
	h, err := decodeHello(payload)
	if err != nil {
		return fail("decoding hello: %v", err)
	}
	if h.proto != protoVersion {
		return fail("protocol version %d, want %d", h.proto, protoVersion)
	}
	fw := &frameWriter{w: bufio.NewWriterSize(stdout, 1<<16)}

	// The worker's run ends with its pipe: a failed violation write
	// cancels ctx, which stops the unit at the runner's next probe.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	loaded, err := store.Open(ctx, h.shardPath)
	if err != nil {
		return fail("opening shard %s: %v", h.shardPath, err)
	}
	defer loaded.Close()
	snap := loaded.Snapshot()
	if snap.NumNodes() != h.numNodes {
		return fail("shard %s holds %d nodes, manifest says %d", h.shardPath, snap.NumNodes(), h.numNodes)
	}
	set, err := core.ParseRules(strings.NewReader(h.rules))
	if err != nil {
		return fail("parsing shipped rules: %v", err)
	}
	// The overlay receives halo patches; the shard snapshot beneath it is
	// the mmap'd file. The overlay owns the patches — the shard's graph is
	// sealed and reads through them, never copied onto the heap — so a unit's
	// halo costs O(|halo|). Every shard carries the full (global) symbol table,
	// so halo interning never mints new codes and enumeration order stays
	// identical across workers — the retry dedupe depends on it.
	ov := graph.NewOverlay(snap.Graph())
	b := validate.NewBundleOver(ov.Snapshot, set, nil)
	// The coordinator shipped the post-reduction set and its grouping
	// flag; NoReduce keeps the worker from reducing again, and the flag
	// reproduces the exact group indices the unit descriptors reference.
	opt := validate.Options{NoOptimize: !h.combine, NoReduce: true}
	runner := validate.NewUnitRunner(ctx, b, opt)
	if h.groups != runner.Groups() {
		return fail("rebuilt %d rule groups, coordinator has %d", runner.Groups(), h.groups)
	}
	if err := fw.write(fReady, encodeReady(readyMsg{numNodes: snap.NumNodes(), groups: runner.Groups()})); err != nil {
		return fail("writing ready: %v", err)
	}

	hb := h.heartbeat
	if hb <= 0 {
		hb = DefaultHeartbeat
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if fw.write(fHeartbeat, nil) != nil {
					return // coordinator gone; the main loop will notice
				}
			}
		}
	}()

	// Answers are held back while more input is already buffered, and leave
	// together: when the input runs dry, when a violation batch fills, or
	// after answerDelay on this timer — so a long unit never sits on the
	// finished answers of the short ones before it. (It starts out armed; the
	// first firing finds nothing to flush.)
	var lateArmed atomic.Bool
	lateArmed.Store(true)
	late := time.AfterFunc(answerDelay, func() {
		lateArmed.Store(false)
		_ = fw.flush() // a dead pipe fails the loop's next write as well
	})
	defer late.Stop()

	// Per-unit state lives outside the loop — batch, encode scratch and the
	// two closures are reused — so a unit allocates nothing here.
	var (
		unit  int
		enc   []byte
		batch = make([]validate.Violation, 0, vioBatch)
	)
	sendBatch := func() bool {
		if len(batch) == 0 {
			return true
		}
		enc = encodeVio(enc, vioMsg{unit: unit, vios: batch})
		if fw.queue(fVio, enc) != nil {
			return false
		}
		batch = batch[:0]
		return true
	}
	emit := func(v validate.Violation) {
		batch = append(batch, v)
		if len(batch) >= vioBatch && (!sendBatch() || fw.flush() != nil) {
			cancel()
		}
	}
	for {
		typ, payload, err := fr.read()
		if err != nil {
			if err == io.EOF {
				return 0 // coordinator closed the pipe: clean shutdown
			}
			return fail("reading frame: %v", err)
		}
		switch typ {
		case fAssign:
			m, err := decodeAssign(payload)
			if err != nil {
				return fail("decoding assign: %v", err)
			}
			if err := applyHalo(ov, m.halo); err != nil {
				return fail("patching halo for unit %d: %v", m.unit.ID, err)
			}
			start := time.Now()
			unit = m.unit.ID
			err = runner.Run(m.unit, m.skip, emit)
			if ctx.Err() != nil || !sendBatch() {
				return fail("writing violations for unit %d", unit)
			}
			if err != nil {
				return fail("running unit %d: %v", unit, err)
			}
			enc = encodeDone(enc, doneMsg{unit: unit, wall: time.Since(start)})
			if err := fw.queue(fDone, enc); err != nil {
				return fail("writing done for unit %d: %v", unit, err)
			}
			if !fr.ready() {
				if err := fw.flush(); err != nil {
					return fail("writing done for unit %d: %v", unit, err)
				}
			} else if lateArmed.CompareAndSwap(false, true) {
				late.Reset(answerDelay)
			}
		default:
			return fail("unexpected frame type %d", typ)
		}
	}
}

// applyHalo patches the shipped non-owned block nodes into the worker's
// overlay: attribute tuples, then full adjacency in both directions. Its
// cost is the halo's, not the shard's: the writes land in the overlay's
// patch and never copy the mapped shard onto the heap.
// Edges already present — because the other endpoint is owned, or because
// an earlier unit's halo introduced them — are skipped, so re-shipment
// after respawn stays idempotent. The test is for the edge's own label
// (Graph.HasEdge): an edge labelled "_" is not any edge. A halo that names a node
// outside the shard is out of protocol: it fails before any write.
func applyHalo(ov *graph.Overlay, halo []haloNode) error {
	n := ov.NumNodes()
	outside := func(e haloEdge) bool { return !inShard(e.to, n) }
	for _, h := range halo {
		if !inShard(h.id, n) || slices.ContainsFunc(h.out, outside) || slices.ContainsFunc(h.in, outside) {
			return fmt.Errorf("halo node %d names a node outside the shard's %d", h.id, n)
		}
	}
	g := ov.Graph()
	for _, h := range halo {
		for _, kv := range h.attrs {
			ov.SetAttr(h.id, kv[0], kv[1])
		}
		for _, e := range h.out {
			if g.HasEdge(h.id, e.to, e.label) {
				continue
			}
			if err := ov.AddEdge(h.id, e.to, e.label); err != nil {
				return err
			}
		}
		for _, e := range h.in {
			if g.HasEdge(e.to, h.id, e.label) {
				continue
			}
			if err := ov.AddEdge(e.to, h.id, e.label); err != nil {
				return err
			}
		}
	}
	return nil
}
