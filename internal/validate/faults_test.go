package validate

// The chaos suites' fault plans, and the two places they strike from: a
// wrapper around the goroutine slots runEngine builds (the wrapSlots seam)
// and an interposer on a worker process's stdin and stdout, which the test
// binary runs when the fleet re-executes it as a dist worker. The engines
// carry no injector; a plan is declarative, and every rule fires at a
// counted point — a slot's k-th attempt, a unit's first attempt, the run's
// n-th emission, a process's k-th ASSIGN or k-th outbound frame — once a
// run, so a failing case replays from its seed.

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type faultAction uint8

const (
	actKill     faultAction = iota // goroutine slot w panics before its k-th attempt
	actDelay                       // unit u's first attempt stalls
	actPanic                       // the run's n-th emission panics
	actKillProc                    // worker process w exits at its k-th ASSIGN
	actStall                       // worker process w holds its k-th outbound frame
	actTruncate                    // worker process w tears its k-th outbound frame and exits
)

// faultRule is one fault of a plan. nth is 0-based for kills, stalls and
// truncations and 1-based for panics.
type faultRule struct {
	act    faultAction
	worker int
	nth    int64
	unit   int
	delay  time.Duration
}

// FaultPlan is an immutable fault specification. A nil plan injects
// nothing. Goroutine slots take it through InjectSlots, process slots
// through FaultCommand; each ignores the other's rules, and DelayUnit
// applies to both.
type FaultPlan struct {
	seed  int64
	rules []faultRule
}

// NewFaultPlan returns an empty plan tagged with a seed.
func NewFaultPlan(seed int64) *FaultPlan { return &FaultPlan{seed: seed} }

func (p *FaultPlan) add(r faultRule) *FaultPlan {
	p.rules = append(p.rules, r)
	return p
}

// KillWorker makes goroutine slot w panic before its k-th attempt (0-based),
// before any of the attempt's work.
func (p *FaultPlan) KillWorker(w, k int) *FaultPlan {
	return p.add(faultRule{act: actKill, worker: w, nth: int64(k)})
}

// DelayUnit stalls the first attempt of unit u by d: a goroutine slot
// sleeps before the attempt, and with Options.UnitDeadline ≤ d abandons it
// as the cooperative deadline would at its first checkpoint; a process
// slot's ASSIGN of u is held back, so the coordinator kills the process at
// the deadline. Either way the retry, undelayed, succeeds.
func (p *FaultPlan) DelayUnit(u int, d time.Duration) *FaultPlan {
	return p.add(faultRule{act: actDelay, unit: u, delay: d})
}

// PanicAt panics right after the run's n-th emission (1-based) reached the
// sink, inside the matcher's yield, so the slot's matcher unwinds with a
// match bound.
func (p *FaultPlan) PanicAt(n int) *FaultPlan {
	return p.add(faultRule{act: actPanic, nth: int64(n)})
}

// KillProcess makes worker process w exit at its k-th ASSIGN (0-based),
// once it has answered every unit before it: it dies at the start of its
// k-th unit.
func (p *FaultPlan) KillProcess(w, k int) *FaultPlan {
	return p.add(faultRule{act: actKillProc, worker: w, nth: int64(k)})
}

// StallPipe holds worker process w's k-th outbound frame (0-based) for d;
// the heartbeats behind it starve, so the coordinator's liveness check
// kills the process first when d is long.
func (p *FaultPlan) StallPipe(w, k int, d time.Duration) *FaultPlan {
	return p.add(faultRule{act: actStall, worker: w, nth: int64(k), delay: d})
}

// TruncateMessage makes worker process w write half of its k-th outbound
// frame (0-based) and exit, as a death mid-write looks.
func (p *FaultPlan) TruncateMessage(w, k int) *FaultPlan {
	return p.add(faultRule{act: actTruncate, worker: w, nth: int64(k)})
}

// Len returns the number of faults in the plan.
func (p *FaultPlan) Len() int { return len(p.ruleList()) }

// Fatal returns how many of the plan's faults end the attempt they fire in:
// every fault but a delay. A recovery test whose plan has a fatal fault
// requires its run to show a retry or a death, so a workload too small for
// the plan's ordinals cannot pass it vacuously.
func (p *FaultPlan) Fatal() int {
	n := 0
	for _, r := range p.ruleList() {
		if r.act != actDelay {
			n++
		}
	}
	return n
}

func (p *FaultPlan) ruleList() []faultRule {
	if p == nil {
		return nil
	}
	return p.rules
}

// String summarizes the plan for logs and failing-test output.
func (p *FaultPlan) String() string {
	if p.Len() == 0 {
		return "FaultPlan{}"
	}
	s := fmt.Sprintf("FaultPlan{seed=%d", p.seed)
	for _, r := range p.rules {
		switch r.act {
		case actKill:
			s += fmt.Sprintf(", kill(w%d@unit#%d)", r.worker, r.nth)
		case actDelay:
			s += fmt.Sprintf(", delay(u%d,%v)", r.unit, r.delay)
		case actPanic:
			s += fmt.Sprintf(", panic(emit#%d)", r.nth)
		case actKillProc:
			s += fmt.Sprintf(", killproc(w%d@unit#%d)", r.worker, r.nth)
		case actStall:
			s += fmt.Sprintf(", stall(w%d@frame#%d,%v)", r.worker, r.nth, r.delay)
		case actTruncate:
			s += fmt.Sprintf(", trunc(w%d@frame#%d)", r.worker, r.nth)
		}
	}
	return s + "}"
}

// Encode writes the plan as one command-line word; DecodePlan is the
// inverse. An empty plan encodes to "".
func (p *FaultPlan) Encode() string {
	if p.Len() == 0 {
		return ""
	}
	s := fmt.Sprintf("v1;seed=%d", p.seed)
	for _, r := range p.rules {
		switch r.act {
		case actKill:
			s += fmt.Sprintf(";kill,%d,%d", r.worker, r.nth)
		case actDelay:
			s += fmt.Sprintf(";delay,%d,%d", r.unit, int64(r.delay))
		case actPanic:
			s += fmt.Sprintf(";panic,%d", r.nth)
		case actKillProc:
			s += fmt.Sprintf(";killproc,%d,%d", r.worker, r.nth)
		case actStall:
			s += fmt.Sprintf(";stall,%d,%d,%d", r.worker, r.nth, int64(r.delay))
		case actTruncate:
			s += fmt.Sprintf(";trunc,%d,%d", r.worker, r.nth)
		}
	}
	return s
}

// planArity is the argument count of each encoded rule.
var planArity = map[string]int{"kill": 2, "delay": 2, "panic": 1, "killproc": 2, "stall": 3, "trunc": 2}

// DecodePlan parses an Encode string. "" decodes to nil (no plan).
func DecodePlan(s string) (*FaultPlan, error) {
	if s == "" {
		return nil, nil
	}
	fields := strings.Split(s, ";")
	if fields[0] != "v1" {
		return nil, fmt.Errorf("fault plan: unknown encoding %q", fields[0])
	}
	p := &FaultPlan{}
	for _, f := range fields[1:] {
		if seed, ok := strings.CutPrefix(f, "seed="); ok {
			v, err := strconv.ParseInt(seed, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault plan: bad seed %q", seed)
			}
			p.seed = v
			continue
		}
		parts := strings.Split(f, ",")
		args := make([]int64, 0, 3)
		for _, a := range parts[1:] {
			v, err := strconv.ParseInt(a, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault plan: bad field %q", f)
			}
			args = append(args, v)
		}
		if n, ok := planArity[parts[0]]; !ok || n != len(args) {
			return nil, fmt.Errorf("fault plan: bad field %q", f)
		}
		switch parts[0] {
		case "kill":
			p.add(faultRule{act: actKill, worker: int(args[0]), nth: args[1]})
		case "delay":
			p.add(faultRule{act: actDelay, unit: int(args[0]), delay: time.Duration(args[1])})
		case "panic":
			p.add(faultRule{act: actPanic, nth: args[0]})
		case "killproc":
			p.add(faultRule{act: actKillProc, worker: int(args[0]), nth: args[1]})
		case "stall":
			p.add(faultRule{act: actStall, worker: int(args[0]), nth: args[1], delay: time.Duration(args[2])})
		case "trunc":
			p.add(faultRule{act: actTruncate, worker: int(args[0]), nth: args[1]})
		}
	}
	return p, nil
}

// FromSeed derives a pseudo-random recoverable plan for goroutine slots,
// for a run with the given worker and unit counts that delivers the given
// number of violations: one or two faults drawn from slot kills, unit
// delays and emission panics. A panic strikes at one of the run's
// emissions, so every drawn panic fires; a run without violations draws
// none. A goroutine slot that panicked is never revived, so at most
// workers−1 faults are fatal: a fatal draw past that becomes a delay, and
// one worker gets delays only. The same arguments always yield the same
// plan.
func FromSeed(seed int64, workers, units, violations int) *FaultPlan {
	workers, units = max(workers, 1), max(units, 1)
	rng := rand.New(rand.NewSource(seed))
	p := NewFaultPlan(seed)
	for range 1 + rng.Intn(2) {
		kind := rng.Intn(4)
		if kind != 1 && p.Fatal() == workers-1 || kind >= 2 && violations == 0 {
			kind = 1
		}
		switch kind {
		case 0:
			p.KillWorker(rng.Intn(workers), rng.Intn(3))
		case 1:
			p.DelayUnit(rng.Intn(units), time.Duration(1+rng.Intn(4))*time.Millisecond)
		default:
			p.PanicAt(1 + rng.Intn(violations))
		}
	}
	return p
}

// FromSeedProc derives a pseudo-random recoverable plan for process slots:
// one or two faults drawn from process kills, pipe stalls, torn frames and
// unit delays. Stalls last far beyond any sane heartbeat interval, so the
// coordinator's liveness check, not the stall's end, ends the process.
func FromSeedProc(seed int64, workers, units int) *FaultPlan {
	workers, units = max(workers, 1), max(units, 1)
	rng := rand.New(rand.NewSource(seed))
	p := NewFaultPlan(seed)
	for range 1 + rng.Intn(2) {
		switch rng.Intn(4) {
		case 0:
			p.KillProcess(rng.Intn(workers), rng.Intn(3))
		case 1:
			p.StallPipe(rng.Intn(workers), rng.Intn(6), 30*time.Second)
		case 2:
			p.TruncateMessage(rng.Intn(workers), rng.Intn(6))
		case 3:
			p.DelayUnit(rng.Intn(units), time.Duration(1+rng.Intn(4))*time.Millisecond)
		}
	}
	return p
}

// ---- goroutine slots ------------------------------------------------------

// faultySlots is a plan armed on one run's goroutine slots. Its panics
// reach the scheduler exactly as a genuine slot death does.
type faultySlots struct {
	Executor
	p        *FaultPlan
	deadline time.Duration // the run's Options.UnitDeadline
	fired    []atomic.Bool // per rule: each fires once a run
	mu       sync.Mutex
	tries    map[int]int  // attempts started per slot
	emitted  atomic.Int64 // emissions of the run so far
}

// arm puts p on a run's slots e, whose attempts have the given
// Options.UnitDeadline.
func (p *FaultPlan) arm(e Executor, deadline time.Duration) Executor {
	return &faultySlots{Executor: e, p: p, deadline: deadline, fired: make([]atomic.Bool, p.Len()), tries: map[int]int{}}
}

func (s *faultySlots) fire(i int) bool { return s.fired[i].CompareAndSwap(false, true) }

func (s *faultySlots) Run(w int, queue []int, skip func(int) int64, emit func(Violation)) error {
	s.mu.Lock()
	k := s.tries[w]
	s.tries[w]++
	s.mu.Unlock()
	for i, r := range s.p.ruleList() {
		switch {
		case r.act == actKill && r.worker == w && r.nth == int64(k) && s.fire(i):
			panic(fmt.Sprintf("fault: slot %d killed at its attempt %d", w, k))
		case r.act == actDelay && r.unit == queue[0] && s.fire(i):
			time.Sleep(r.delay)
			if s.deadline > 0 && r.delay >= s.deadline {
				return context.DeadlineExceeded
			}
		}
	}
	return s.Executor.Run(w, queue, skip, func(v Violation) {
		emit(v)
		n := s.emitted.Add(1)
		for i, r := range s.p.ruleList() {
			if r.act == actPanic && r.nth == n && s.fire(i) {
				panic(fmt.Sprintf("fault: panic at the run's emission %d", n))
			}
		}
	})
}

// ---- process slots --------------------------------------------------------

// faultArg marks a worker command line that carries a fault plan:
// FaultCommand's [binary, faultArg, plan, marker directory].
const faultArg = "-gfd.faults"

// exitFault is a worker process's exit status when a process fault ends it.
const exitFault = 42

// The frame layout of internal/dist's wire protocol that the interposer
// reads: a u32 little-endian payload length, a u8 type, the payload. A
// HELLO carries the worker index at payload offset 4, an ASSIGN its unit ID
// in its first u32. TestProcessFaultsFireWhereTheySay pins these.
const (
	frameHeader = 5
	frameHello  = 1
	frameAssign = 3
	frameDone   = 5
	frameMax    = 64 << 20
)

// FaultCommand is the worker command line (DistOptions.Command) that arms p
// on every process of a dist run: this test binary, re-executed, with the
// plan and a directory for the markers that let each rule fire once a run.
// A replacement process gets the same line.
func FaultCommand(t testing.TB, p *FaultPlan) []string {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return []string{exe, faultArg, p.Encode(), t.TempDir()}
}

// FiredFaults counts the rules of a FaultCommand line that have fired.
func FiredFaults(t testing.TB, command []string) int {
	entries, err := os.ReadDir(command[len(command)-1])
	if err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

// InterposeFaults arms the plan a worker's command line carries
// (FaultCommand): os.Stdin and os.Stdout become pipes, and two goroutines
// copy the frames across them, counting each, and fault them as the plan
// says. Call it from TestMain in a process spawned as a dist worker, before
// dist.MaybeWorker; without a plan on the command line it does nothing.
func InterposeFaults() {
	if len(os.Args) != 4 || os.Args[1] != faultArg {
		return
	}
	p, err := DecodePlan(os.Args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, "fault interposer:", err)
		os.Exit(exitFault)
	}
	ip := &interposer{p: p, dir: os.Args[3]}
	ip.worker.Store(-1)
	ip.answered.L = &ip.mu
	inR, inW, err := os.Pipe()
	if err != nil {
		panic(err)
	}
	outR, outW, err := os.Pipe()
	if err != nil {
		panic(err)
	}
	go ip.inbound(os.Stdin, inW)
	go ip.outbound(outR, os.Stdout)
	os.Stdin, os.Stdout = inR, outW
}

// interposer is one worker process's armed plan.
type interposer struct {
	p        *FaultPlan
	dir      string
	worker   atomic.Int64 // from the HELLO; -1 before it
	mu       sync.Mutex
	answered sync.Cond // signalled per DONE passed on
	dones    int
}

// fire claims rule i for the run: the first process to create its marker
// fires it.
func (ip *interposer) fire(i int) bool {
	f, err := os.OpenFile(filepath.Join(ip.dir, "rule"+strconv.Itoa(i)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return false
	}
	f.Close()
	return true
}

// inbound copies the coordinator's frames to the worker: it learns the
// worker index from the HELLO, and holds or ends the process at an ASSIGN.
func (ip *interposer) inbound(from io.Reader, to *os.File) {
	r := bufio.NewReader(from)
	for assigns := int64(0); ; {
		typ, frame, err := readFaultFrame(r)
		if err != nil {
			to.Close() // the worker reads the end of its input
			return
		}
		switch typ {
		case frameHello:
			ip.worker.Store(int64(binary.LittleEndian.Uint32(frame[frameHeader+4:])))
		case frameAssign:
			unit := int(binary.LittleEndian.Uint32(frame[frameHeader:]))
			w := int(ip.worker.Load())
			for i, rule := range ip.p.ruleList() {
				switch {
				case rule.act == actKillProc && rule.worker == w && rule.nth == assigns && ip.fire(i):
					ip.mu.Lock()
					for int64(ip.dones) < assigns {
						ip.answered.Wait()
					}
					os.Exit(exitFault)
				case rule.act == actDelay && rule.unit == unit && ip.fire(i):
					time.Sleep(rule.delay)
				}
			}
			assigns++
		}
		if _, err := to.Write(frame); err != nil {
			return
		}
	}
}

// outbound copies the worker's frames to the coordinator, holding or
// tearing the k-th.
func (ip *interposer) outbound(from io.Reader, to io.Writer) {
	r := bufio.NewReader(from)
	for k := int64(0); ; k++ {
		typ, frame, err := readFaultFrame(r)
		if err != nil {
			return
		}
		w := int(ip.worker.Load())
		for i, rule := range ip.p.ruleList() {
			if rule.worker != w || rule.nth != k {
				continue
			}
			switch {
			case rule.act == actStall && ip.fire(i):
				time.Sleep(rule.delay)
			case rule.act == actTruncate && ip.fire(i):
				to.Write(frame[:frameHeader+(len(frame)-frameHeader)/2])
				os.Exit(exitFault)
			}
		}
		if _, err := to.Write(frame); err != nil {
			return
		}
		if typ == frameDone {
			ip.mu.Lock()
			ip.dones++
			ip.answered.Broadcast()
			ip.mu.Unlock()
		}
	}
}

// readFaultFrame reads one whole frame, header included.
func readFaultFrame(r *bufio.Reader) (typ byte, frame []byte, err error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > frameMax {
		return 0, nil, fmt.Errorf("fault interposer: frame of %d bytes", n)
	}
	frame = make([]byte, frameHeader+int(n))
	copy(frame, hdr[:])
	if _, err := io.ReadFull(r, frame[frameHeader:]); err != nil {
		return 0, nil, err
	}
	return hdr[4], frame, nil
}
