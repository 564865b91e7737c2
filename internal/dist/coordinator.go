package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strings"
	"sync"
	"time"

	"gfd/internal/cluster"
	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/validate"
)

// Supervision defaults.
const (
	// DefaultHeartbeat is the worker heartbeat period when
	// DistOptions.HeartbeatInterval is unset; a worker silent for three
	// periods while a unit is in flight is declared lost and killed.
	DefaultHeartbeat = 200 * time.Millisecond
	// DefaultHandshakeTimeout bounds spawn-to-READY (shard open + rule
	// parse + group rebuild).
	DefaultHandshakeTimeout = 10 * time.Second
	// DefaultMaxRespawns is how many replacement processes a worker slot
	// gets when DistOptions.MaxRespawns is 0.
	DefaultMaxRespawns = 1
	// heartbeatMisses is how many silent heartbeat periods a read on a
	// worker's pipe tolerates before the worker is killed.
	heartbeatMisses = 3
)

// The dispatch window: how much unanswered work one worker's pipe may carry.
// Constants, because neither is a trade-off a caller could tune.
const (
	// windowUnits caps the ASSIGNs in flight per slot. A unit costs a
	// microsecond of enumeration against tens for a pipe round trip; a few
	// dozen per flush amortize the trip and the syscall to noise, and more
	// only grows what a death has to ship again.
	windowUnits = 64
	// windowBytes caps their frames' total size below the 64 KiB a pipe
	// holds: flushing the window completes whatever the worker is doing —
	// even blocked writing answers nobody reads yet — so the two sides can
	// never both be stuck in write. A larger frame (a big halo) travels
	// alone, when the worker has nothing left to answer.
	windowBytes = 48 << 10
)

// DetectB is the distributed engine: the one engine body of
// internal/validate (plan, fault-tolerant unit scheduler, union) with its
// slots backed by worker processes. It loads the shard manifest and hands
// the scheduler a fleet — one process per shard, each mmapping its own
// .gfds and running the compiled per-unit body — that turns "run unit u on
// slot w" into an ASSIGN frame with the unit's halo and the VIO*/DONE
// frames coming back, and reports a lost process (exit, torn frame,
// handshake or heartbeat silence, blown unit deadline) the way a goroutine
// slot reports a panic. Retry budgets, the retry queue, backoff, the
// exactly-once skip counts and the census are the scheduler's, shared with
// repVal and disVal. A dead slot is respawned under DistOptions.MaxRespawns
// from its own task while units are queued, concurrently with the other
// slots: fleet.Start touches only procs[w] and the cluster's locked
// counters. Exhausted budgets surface as
// *validate.PartialError with Result.Completeness carrying the census;
// when every process is lost (or none could be started) before anything
// was delivered, the same plan runs on in-process goroutine slots instead.
//
// The bundle's view must be the frozen, unmutated snapshot the shards
// were written from (NodeIDs, symbol codes, and block shapes must agree),
// never an overlay's patched view (Patched); a session with pending
// overlay mutations must re-shard first.
func DetectB(ctx context.Context, b *validate.Bundle, opt validate.Options, sink validate.Sink) (*validate.Result, error) {
	if err := ctx.Err(); err != nil {
		return &validate.Result{}, err
	}
	m, err := manifestFor(opt)
	if err != nil {
		return &validate.Result{}, err
	}
	snap := b.Topo()
	if snap.Patched() {
		return &validate.Result{}, errors.New("dist: bundle topology is not a frozen snapshot; re-shard after mutations")
	}
	if snap.NumNodes() != m.NumNodes {
		return &validate.Result{}, fmt.Errorf("dist: snapshot holds %d nodes, manifest %s says %d",
			snap.NumNodes(), opt.Dist.ManifestPath, m.NumNodes)
	}
	opt.N = m.Workers // the shard layout fixes the worker count
	return validate.DetectOver(ctx, b, opt, sink, func(plan *validate.DistPlan, cl *cluster.Cluster) (validate.Executor, error) {
		return newFleet(ctx, snap, m, plan, opt, cl)
	})
}

func manifestFor(opt validate.Options) (*Manifest, error) {
	if opt.Dist == nil || opt.Dist.ManifestPath == "" {
		return nil, errors.New("dist: EngineDistributed requires Options.Dist.ManifestPath")
	}
	return LoadManifest(opt.Dist.ManifestPath)
}

// fleet is the process-backed validate.Executor: slot w is a worker process
// over shard w. It holds only what is about processes — spawn and
// handshake, halo selection, frame I/O, liveness by read deadline and
// reaping; everything about units belongs to the scheduler driving it.
type fleet struct {
	ctx      context.Context
	snap     *graph.Snapshot
	manifest *Manifest
	plan     *validate.DistPlan
	cl       *cluster.Cluster
	rules    string

	heartbeat    time.Duration
	handshake    time.Duration
	unitDeadline time.Duration
	maxRespawns  int
	command      []string

	procs  []proc
	closed bool
	// describe is what an ASSIGN carries for a unit: the plan's Unit (a
	// test may substitute a malformed one).
	describe func(ui int) validate.Unit
}

// proc is one worker slot across incarnations. During a superstep it is
// touched only by its slot's goroutine; between supersteps only by the
// scheduler.
type proc struct {
	id int

	cmd    *exec.Cmd // nil while no incarnation is running
	stdin  io.WriteCloser
	stdout *os.File
	fw     *frameWriter
	fr     *frameReader
	tail   *tailBuffer

	spawns  int // incarnations started
	spawned time.Time
	ready   bool          // READY consumed: the handshake completed
	shipped []bool        // halo nodes already shipped to this incarnation
	busy    time.Duration // sum of reported unit walls — the modeled span basis

	// window holds the slot's unanswered ASSIGNs, in the order written —
	// the order the worker answers in. While it is non-empty the process is
	// mid-unit.
	window     []inFlight
	unanswered int       // Σ window sizes, held under windowBytes
	headSince  time.Time // when window[0] got the worker to itself: its deadline clock
	held       bool      // enc holds the next unit's ASSIGN, waiting for room in the window

	block *graph.EpochSet // halo selection scratch: one unit's data block
	halo  []haloNode      // ASSIGN scratch
	enc   []byte          // ASSIGN payload scratch
}

// inFlight is one unanswered ASSIGN: its unit and frame size.
type inFlight struct {
	unit, size int
}

func newFleet(ctx context.Context, snap *graph.Snapshot, m *Manifest, plan *validate.DistPlan, opt validate.Options, cl *cluster.Cluster) (*fleet, error) {
	var rules strings.Builder
	if err := core.WriteRules(&rules, plan.Set); err != nil {
		return nil, err
	}
	f := &fleet{
		ctx: ctx, snap: snap, manifest: m, plan: plan, cl: cl,
		rules:        rules.String(),
		heartbeat:    opt.Dist.HeartbeatInterval,
		handshake:    opt.Dist.HandshakeTimeout,
		unitDeadline: opt.UnitDeadline,
		maxRespawns:  opt.Dist.MaxRespawns,
		command:      opt.Dist.Command,
		procs:        make([]proc, m.Workers),
		describe:     plan.Unit,
	}
	if f.heartbeat <= 0 {
		f.heartbeat = DefaultHeartbeat
	}
	if f.handshake <= 0 {
		f.handshake = DefaultHandshakeTimeout
	}
	if f.maxRespawns == 0 {
		f.maxRespawns = DefaultMaxRespawns
	}
	if len(f.command) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		f.command = []string{exe}
	}
	for w := range f.procs {
		f.procs[w].id, f.procs[w].block = w, graph.NewEpochSet(m.NumNodes)
	}
	return f, nil
}

// Start spawns slot w's process — the first incarnation, or a replacement
// under the MaxRespawns budget: pipes wired, stderr tailed, HELLO written.
// It does not wait for READY (the slot's first Run does), so the fleet's
// shard opens overlap.
func (f *fleet) Start(w int) error {
	p := &f.procs[w]
	if budget := max(f.maxRespawns, 0); p.spawns > budget {
		return fmt.Errorf("dist: worker %d: respawn budget (%d) exhausted", w, budget)
	}
	p.spawns++
	cmd := exec.CommandContext(f.ctx, f.command[0], f.command[1:]...)
	cmd.Env = append(os.Environ(), EnvWorker+"=1")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	tail := &tailBuffer{}
	cmd.Stderr = tail
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("dist: spawning worker %d: %w", w, err)
	}
	p.cmd, p.stdin, p.tail = cmd, stdin, tail
	p.stdout = stdout.(*os.File) // os/exec hands out the pipe's read end; deadlines need the file
	p.fw = &frameWriter{w: bufio.NewWriterSize(stdin, 1<<16)}
	p.fr = &frameReader{r: bufio.NewReaderSize(stdout, 1<<16)}
	p.spawned = time.Now()
	p.shipped = make([]bool, f.manifest.NumNodes)
	hello := encodeHello(helloMsg{
		proto:     protoVersion,
		worker:    w,
		numNodes:  f.manifest.NumNodes,
		heartbeat: f.heartbeat,
		combine:   f.plan.Combine,
		shardPath: f.manifest.Shards[w],
		rules:     f.rules,
		groups:    f.plan.Groups,
	})
	f.cl.Ship(cluster.Coordinator, w, frameOverhead+int64(len(hello)))
	// A failed HELLO write means the child died instantly; the slot's
	// first read reports how.
	_ = p.fw.write(fHello, hello)
	return nil
}

// Run answers for unit queue[0] on slot w's process: it relays the
// violations the worker streams back until the unit's DONE. The ASSIGN goes
// out in a window with its successors on the queue (fill), so the pipe round
// trip and the write are paid per window, not per unit. Workers answer in
// the order they were assigned: every frame belongs to the head of the
// window, and the unit deadline stays a plain read deadline on the slot's
// own pipe. A death costs the head its attempt and nothing else — the rest
// of the window was never started as far as the scheduler knows, stays
// pending, and is shipped again wherever it runs next. Every way of losing
// the process ends in lost().
func (f *fleet) Run(w int, queue []int, skip func(ui int) int64, emit func(validate.Violation)) error {
	p := &f.procs[w]
	ui := queue[0]
	if f.plan.Idle(ui) {
		// No pivot candidate on the coordinator's snapshot, so none on the
		// worker's shard: the unit is answered here, without a frame.
		return nil
	}
	if !p.ready {
		typ, payload, err := f.read(p, p.spawned.Add(f.handshake))
		if errors.Is(err, os.ErrDeadlineExceeded) {
			err = fmt.Errorf("handshake timed out after %v", f.handshake)
		}
		if err == nil {
			if m, derr := decodeReady(payload); derr != nil || typ != fReady || m.numNodes != f.manifest.NumNodes || m.groups != f.plan.Groups {
				err = fmt.Errorf("handshake mismatch (frame type %d, %d nodes, %d groups): %v", typ, m.numNodes, m.groups, derr)
			}
		}
		if err != nil {
			return f.lost(p, ui, err)
		}
		f.cl.Ship(w, cluster.Coordinator, frameOverhead+int64(len(payload)))
		p.ready = true
	}
	f.fill(p, queue, skip)

	var limit time.Time
	if f.unitDeadline > 0 {
		limit = p.headSince.Add(f.unitDeadline)
	}
	// killed is why this side killed the process (deadline or silence). The
	// loop keeps reading after a kill: frames the process wrote before dying
	// are consumed — and their violations counted into the unit's skip
	// count by emit — before the death is acted on.
	var killed error
	for {
		typ, payload, err := f.read(p, limit)
		switch {
		case err != nil && killed != nil:
			return f.lost(p, ui, killed)
		case errors.Is(err, os.ErrDeadlineExceeded):
			if !limit.IsZero() && !time.Now().Before(limit) {
				killed = fmt.Errorf("no result within the %v unit deadline: %w", f.unitDeadline, context.DeadlineExceeded)
			} else {
				killed = fmt.Errorf("no frames for %v", heartbeatMisses*f.heartbeat)
			}
			p.cmd.Process.Kill()
			limit = time.Time{}
			continue
		case err != nil:
			return f.lost(p, ui, err)
		}
		if typ != fHeartbeat { // liveness, not shipment: heartbeats stay off the cost model
			f.cl.Ship(w, cluster.Coordinator, frameOverhead+int64(len(payload)))
		}
		switch typ {
		case fVio:
			m, err := decodeVio(payload)
			if err == nil {
				err = f.checkMatches(m.vios)
			}
			if err != nil || m.unit != ui {
				return f.lost(p, ui, fmt.Errorf("violations out of protocol (unit %d, head of window %d): %v", m.unit, ui, err))
			}
			for _, v := range m.vios {
				emit(v)
			}
			if f.ctx.Err() != nil {
				return nil // the run is stopping; Close kills the mid-unit process
			}
		case fDone:
			m, err := decodeDone(payload)
			if err != nil || m.unit != ui {
				return f.lost(p, ui, fmt.Errorf("done frame out of protocol (unit %d, head of window %d): %v", m.unit, ui, err))
			}
			if killed != nil {
				// Finished as it was killed: still a death. What follows on
				// the pipe belongs to units the scheduler never started.
				return f.lost(p, ui, killed)
			}
			p.busy += m.wall
			p.unanswered -= p.window[0].size
			p.window = slices.Delete(p.window, 0, 1)
			if f.unitDeadline > 0 {
				p.headSince = time.Now()
			}
			return nil
		case fHeartbeat:
		default:
			return f.lost(p, ui, fmt.Errorf("unexpected frame type %d", typ))
		}
	}
}

// fill tops p's window up with the ASSIGNs of the units that follow on its
// queue — queue[0] is the head, in the window already unless that is empty
// — and flushes them together. Idle units (DistPlan.Idle) never enter the
// window: Run answers them without a frame. fill waits until half the
// window is answered, so a flush carries half a window rather than one
// frame. An ASSIGN joins only if it fits windowBytes or the window is
// empty; one that does not stays encoded (held) until it does, its halo
// being marked shipped already.
func (f *fleet) fill(p *proc, queue []int, skip func(ui int) int64) {
	if len(p.window) > windowUnits/2 {
		return
	}
	wasEmpty := len(p.window) == 0
	next := 0 // the first queue position not yet in the window
	if !wasEmpty {
		next = slices.Index(queue, p.window[len(p.window)-1].unit) + 1
	}
	for ; next < len(queue) && len(p.window) < windowUnits; next++ {
		ui := queue[next]
		if f.plan.Idle(ui) {
			continue
		}
		if !p.held {
			p.halo = f.haloFor(p, ui)
			p.enc = encodeAssign(p.enc, assignMsg{unit: f.describe(ui), skip: skip(ui), halo: p.halo})
		}
		size := frameOverhead + len(p.enc)
		p.held = len(p.window) > 0 && p.unanswered+size > windowBytes
		if p.held {
			break
		}
		f.cl.Ship(cluster.Coordinator, p.id, int64(size))
		// A failed write means the pipe is gone; the read that follows
		// reports how the process died — after the frames it wrote first.
		_ = p.fw.queue(fAssign, p.enc)
		p.window = append(p.window, inFlight{ui, size})
		p.unanswered += size
	}
	_ = p.fw.flush()
	if wasEmpty {
		p.headSince = time.Now()
	}
}

// read returns p's next frame, giving up with os.ErrDeadlineExceeded at
// limit (zero: none) or — once the worker is heartbeating — after
// heartbeatMisses silent heartbeat periods: liveness is a read deadline on
// the slot's own pipe, not a monitor beside it.
func (f *fleet) read(p *proc, limit time.Time) (byte, []byte, error) {
	if p.fr.ready() {
		return p.fr.read() // no wait, so no deadline to arm
	}
	if p.ready {
		if silence := time.Now().Add(heartbeatMisses * f.heartbeat); limit.IsZero() || silence.Before(limit) {
			limit = silence
		}
	}
	p.stdout.SetReadDeadline(limit)
	return p.fr.read()
}

// checkMatches rejects a violation whose match names a node at or past
// the graph's node count: no worker of a well-formed run reports one.
func (f *fleet) checkMatches(vios []validate.Violation) error {
	for _, v := range vios {
		for _, id := range v.Match {
			if !inShard(id, f.manifest.NumNodes) {
				return fmt.Errorf("rule %s matches node %d of a %d-node graph", v.Rule, id, f.manifest.NumNodes)
			}
		}
	}
	return nil
}

// lost reaps p's process and converts its end into the slot-death error the
// scheduler understands: a *cluster.WorkerError carrying the exit status,
// what ended the frame stream (unwrappable — context.DeadlineExceeded for a
// blown unit deadline) and the stderr tail, where panic stacks land.
func (f *fleet) lost(p *proc, ui int, cause error) error {
	exit := "process died"
	if err := p.reap(); err != nil { // also flushes stderr into the tail
		exit = err.Error()
	}
	tail := strings.TrimSpace(p.tail.String())
	if len(tail) > 512 {
		tail = tail[len(tail)-512:]
	}
	if tail != "" {
		tail = ": " + tail
	}
	return &cluster.WorkerError{Worker: p.id, Unit: ui, Panic: fmt.Errorf("%s (%w)%s", exit, cause, tail)}
}

// reap kills whatever is left of p's process and waits for it; the slot is
// down afterwards.
func (p *proc) reap() error {
	if p.cmd == nil {
		return nil
	}
	p.cmd.Process.Kill()
	p.stdin.Close()
	err := p.cmd.Wait()
	p.cmd, p.ready = nil, false
	p.window, p.unanswered, p.held = p.window[:0], 0, false
	return err
}

// haloFor collects the unit's block nodes this worker does not own and
// has not been shipped yet this incarnation: attribute tuples plus full
// adjacency, from the coordinator's snapshot. The block is that of the
// unit's pivot candidates on the coordinator, so every candidate the
// worker's star test must keep arrives whole, and a member it must drop
// reads at most its edges to owned nodes there, which never pass a test
// the full graph fails. Because every shard keeps the full node/class/
// symbol tables, the halo is the only data a worker is missing, and after
// patching, its local block reproduces the coordinator's exactly.
func (f *fleet) haloFor(p *proc, ui int) []haloNode {
	syms := f.snap.Syms()
	halo := p.halo[:0]
	f.plan.FillBlock(p.block, ui)
	for _, v := range p.block.Members() {
		if f.manifest.Owner(v) == p.id || p.shipped[v] {
			continue
		}
		p.shipped[v] = true
		h := haloNode{id: v}
		for _, pr := range f.snap.AttrPairs(v) {
			h.attrs = append(h.attrs, [2]string{syms.Name(pr.Name), syms.Name(pr.Val)})
		}
		for _, e := range f.snap.Out(v) {
			h.out = append(h.out, haloEdge{to: e.To, label: syms.Name(f.snap.EdgeLabel(e.Label))})
		}
		for _, e := range f.snap.In(v) {
			h.in = append(h.in, haloEdge{to: e.To, label: syms.Name(f.snap.EdgeLabel(e.Label))})
		}
		halo = append(halo, h)
	}
	return halo
}

// Superstep runs every slot's task at once, whatever the core count: a
// process slot waits on its pipe while the child computes, so capping the
// tasks at NumCPU (as the goroutine executor must, to measure compute)
// would idle child processes instead. Busy time is what the workers
// themselves reported in their DONE frames this round.
func (f *fleet) Superstep(task func(w int)) []time.Duration {
	busy := make([]time.Duration, len(f.procs))
	for w := range f.procs {
		busy[w] = f.procs[w].busy
	}
	// Slot tasks recover their own panics in the scheduler.
	cluster.Fan(len(f.procs), 0, task)
	for w := range f.procs {
		busy[w] = f.procs[w].busy - busy[w]
	}
	return busy
}

// Close reaps every worker process — idle, mid-unit (the run was stopped
// or cancelled) or never ready alike: a worker ends one way, by reap.
// Close follows the last answer the scheduler waits for, so nothing a
// worker could still send is read. The fleet never leaks processes.
// Idempotent.
func (f *fleet) Close() {
	if f.closed {
		return
	}
	f.closed = true
	for w := range f.procs {
		f.procs[w].reap()
	}
}

// tailBuffer keeps the last few KB written to it — enough stderr to carry
// a panic stack into a WorkerError without unbounded growth.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailCap = 8 << 10

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailCap {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailCap:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}
