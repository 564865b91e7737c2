package dist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/validate"
)

// The wire protocol: every frame is a u32 little-endian payload length, a
// u8 frame type, then the payload. Strings are u32 length + bytes; node
// IDs travel as u64 (NodeIDs are global — every shard shares the full
// node table, so no translation happens at either end). The protocol is
// deliberately version-checked in the HELLO and bounded by maxFrame: a
// torn or garbage frame must become a typed error (and a worker-death
// event), never a giant allocation or a misread.

const (
	protoVersion = 4 // 4: HELLO has no fleet size; 3: no SHUTDOWN/CENSUS, DONE is (unit, wall)
	// maxFrame bounds one frame's payload. Halo sections dominate frame
	// size; a frame above this is protocol corruption, not data.
	maxFrame = 64 << 20
	// frameOverhead is the header cost charged per frame against the
	// modeled cost model (length + type).
	frameOverhead = 5
)

// Frame types.
const (
	fHello     byte = iota + 1 // coordinator -> worker: identity, rules, shard path
	fReady                     // worker -> coordinator: shard opened, groups rebuilt
	fAssign                    // coordinator -> worker: one unit's class ranges + halo
	fVio                       // worker -> coordinator: violation batch
	fDone                      // worker -> coordinator: unit finished
	fHeartbeat                 // worker -> coordinator: liveness
)

// ---- encoding -------------------------------------------------------------

// wbuf appends one payload. The per-unit encoders (ASSIGN, VIO, DONE) take
// the caller's scratch slice to append into, so a unit loop encodes without
// allocating; the payload they return aliases it.
type wbuf struct{ b []byte }

func (w *wbuf) u8(v byte)    { w.b = append(w.b, v) }
func (w *wbuf) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wbuf) i64(v int64)  { w.u64(uint64(v)) }
func (w *wbuf) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}

type rbuf struct {
	b   []byte
	off int
	err error
}

// errMalformed is what every decode* returns (wrapped, with the field and
// offset) for a payload that does not parse.
var errMalformed = errors.New("dist: malformed frame payload")

func (r *rbuf) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated %s at offset %d", errMalformed, what, r.off)
	}
}

// outOfRange records a field that parsed but holds no value its type
// allows.
func (r *rbuf) outOfRange(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s out of range at offset %d", errMalformed, what, r.off)
	}
}

func (r *rbuf) u8() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail("u8")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *rbuf) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *rbuf) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *rbuf) i64() int64 { return int64(r.u64()) }

// node reads a node ID: a u64 past what a graph.NodeID holds is a decode
// error, never a truncated ID. Whether the ID names a node of the shard is
// the reader's check.
func (r *rbuf) node() graph.NodeID {
	v := r.u64()
	if v > math.MaxInt32 {
		r.outOfRange("node ID")
		return 0
	}
	return graph.NodeID(v)
}

// inShard reports whether v names one of a graph's n nodes.
func inShard(v graph.NodeID, n int) bool { return uint(v) < uint(n) }

func (r *rbuf) str() string {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail("string")
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// count reads a u32 element count and sanity-bounds it by the remaining
// payload (each element costs at least `min` bytes), so a corrupt count
// cannot drive a huge allocation.
func (r *rbuf) count(min int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n < 0 || n*min > len(r.b)-r.off {
		r.fail("count")
		return 0
	}
	return n
}

// ---- frame I/O ------------------------------------------------------------

// frameWriter serializes frames onto one pipe. The mutex makes it safe
// for the worker's heartbeat goroutine and unit loop to interleave.
type frameWriter struct {
	mu      sync.Mutex
	w       *bufio.Writer
	flushes int // flushes that had bytes to move; read by tests only
}

// write sends one frame now.
func (fw *frameWriter) write(typ byte, payload []byte) error {
	if err := fw.queue(typ, payload); err != nil {
		return err
	}
	return fw.flush()
}

// queue buffers one frame behind those already queued; it reaches the pipe
// with the next flush (or when the 64 KiB buffer fills).
func (fw *frameWriter) queue(typ byte, payload []byte) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	var hdr [frameOverhead]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	if _, err := fw.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := fw.w.Write(payload)
	return err
}

func (fw *frameWriter) flush() error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.w.Buffered() > 0 {
		fw.flushes++
	}
	return fw.w.Flush()
}

// readStep is how far a frameReader's payload buffer grows ahead of the
// bytes that have actually arrived.
const readStep = 1 << 20

// frameReader deserializes frames off one pipe into one payload buffer it
// reuses across frames: the slice read returns is valid until the next
// read, and every decode* copies what it keeps.
type frameReader struct {
	r   *bufio.Reader
	buf []byte
}

// ready reports whether the next frame is already buffered whole, so that
// read returns it without touching the pipe.
func (fr *frameReader) ready() bool {
	if fr.r.Buffered() < frameOverhead {
		return false
	}
	hdr, _ := fr.r.Peek(4)
	return uint64(fr.r.Buffered()) >= frameOverhead+uint64(binary.LittleEndian.Uint32(hdr))
}

// read returns the next frame. io.EOF (clean close between frames) and
// io.ErrUnexpectedEOF (torn frame) both surface as errors; the caller
// treats any error as end-of-peer. The buffer grows by what arrives, not by
// what the header claims — at most readStep beyond the bytes received — so a
// torn or hostile header costs one step, not maxFrame.
func (fr *frameReader) read() (byte, []byte, error) {
	var hdr [frameOverhead]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, fmt.Errorf("dist: torn frame header: %w", err)
		}
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:4]))
	if n > maxFrame {
		return 0, nil, fmt.Errorf("%w: frame of %d bytes exceeds limit %d", errMalformed, n, maxFrame)
	}
	buf := fr.buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, len(buf)+min(n-len(buf), readStep)), buf...)
		}
		got, err := io.ReadFull(fr.r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+got]
		fr.buf = buf // grown capacity is kept, torn frame or not
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the stream ended inside a frame, however few bytes in
		}
		if err != nil {
			return 0, nil, fmt.Errorf("dist: torn frame payload: %w", err)
		}
	}
	return hdr[4], buf, nil
}

// ---- messages -------------------------------------------------------------

type helloMsg struct {
	proto     uint32
	worker    int
	numNodes  int
	heartbeat time.Duration
	combine   bool
	shardPath string
	rules     string // core.WriteRules serialization of the effective set
	groups    int    // coordinator's group count, sanity-checked worker-side
}

func encodeHello(h helloMsg) []byte {
	var w wbuf
	w.u32(h.proto)
	w.u32(uint32(h.worker))
	w.u64(uint64(h.numNodes))
	w.i64(int64(h.heartbeat))
	var flags byte
	if h.combine {
		flags |= 1
	}
	w.u8(flags)
	w.str(h.shardPath)
	w.str(h.rules)
	w.u32(uint32(h.groups))
	return w.b
}

func decodeHello(b []byte) (helloMsg, error) {
	r := rbuf{b: b}
	h := helloMsg{proto: r.u32()}
	h.worker = int(r.u32())
	h.numNodes = int(r.u64())
	h.heartbeat = time.Duration(r.i64())
	h.combine = r.u8()&1 != 0
	h.shardPath = r.str()
	h.rules = r.str()
	h.groups = int(r.u32())
	return h, r.err
}

type readyMsg struct {
	numNodes int
	groups   int
}

func encodeReady(m readyMsg) []byte {
	var w wbuf
	w.u64(uint64(m.numNodes))
	w.u32(uint32(m.groups))
	return w.b
}

func decodeReady(b []byte) (readyMsg, error) {
	r := rbuf{b: b}
	m := readyMsg{numNodes: int(r.u64()), groups: int(r.u32())}
	return m, r.err
}

// haloNode is one non-owned block node shipped to a worker: its attribute
// tuple and full adjacency, as strings (symbol codes are identical across
// shards by construction, but strings keep the protocol independent of
// that invariant — the overlay re-interns to the same codes either way).
type haloNode struct {
	id    graph.NodeID
	attrs [][2]string
	out   []haloEdge // id -> To
	in    []haloEdge // To -> id
}

type haloEdge struct {
	to    graph.NodeID
	label string
}

type assignMsg struct {
	unit validate.Unit
	skip int64
	halo []haloNode
}

func encodeAssign(dst []byte, m assignMsg) []byte {
	w := wbuf{b: dst[:0]}
	w.u32(uint32(m.unit.ID))
	w.u32(uint32(m.unit.Group))
	w.u32(uint32(m.unit.StripeMod))
	w.u32(uint32(m.unit.StripeRem))
	w.u64(uint64(m.skip))
	w.u32(uint32(len(m.unit.Ranges)))
	for _, r := range m.unit.Ranges {
		w.u64(uint64(r.Lo))
		w.u64(uint64(r.Hi))
	}
	w.u32(uint32(len(m.halo)))
	for _, h := range m.halo {
		w.u64(uint64(h.id))
		w.u32(uint32(len(h.attrs)))
		for _, kv := range h.attrs {
			w.str(kv[0])
			w.str(kv[1])
		}
		w.u32(uint32(len(h.out)))
		for _, e := range h.out {
			w.u64(uint64(e.to))
			w.str(e.label)
		}
		w.u32(uint32(len(h.in)))
		for _, e := range h.in {
			w.u64(uint64(e.to))
			w.str(e.label)
		}
	}
	return w.b
}

// decodeAssign parses an ASSIGN. Range bounds and node IDs arrive as u64
// and are kept only when they fit an int32; whether they fit the class or
// the shard is the worker's check (validate.UnitRunner.Run, applyHalo),
// against its own shard.
func decodeAssign(b []byte) (assignMsg, error) {
	r := rbuf{b: b}
	var m assignMsg
	m.unit.ID = int(r.u32())
	m.unit.Group = int(r.u32())
	m.unit.StripeMod = int(r.u32())
	m.unit.StripeRem = int(r.u32())
	m.skip = r.i64()
	nr := r.count(16)
	m.unit.Ranges = make([]validate.Range, nr)
	for i := range m.unit.Ranges {
		lo, hi := r.u64(), r.u64()
		if lo > math.MaxInt32 || hi > math.MaxInt32 {
			r.outOfRange("range bound")
		}
		m.unit.Ranges[i] = validate.Range{Lo: int(lo), Hi: int(hi)}
	}
	nh := r.count(8)
	m.halo = make([]haloNode, 0, nh)
	for i := 0; i < nh && r.err == nil; i++ {
		var h haloNode
		h.id = r.node()
		na := r.count(8)
		h.attrs = make([][2]string, na)
		for j := range h.attrs {
			h.attrs[j][0] = r.str()
			h.attrs[j][1] = r.str()
		}
		no := r.count(12)
		h.out = make([]haloEdge, no)
		for j := range h.out {
			h.out[j] = haloEdge{to: r.node(), label: r.str()}
		}
		ni := r.count(12)
		h.in = make([]haloEdge, ni)
		for j := range h.in {
			h.in[j] = haloEdge{to: r.node(), label: r.str()}
		}
		m.halo = append(m.halo, h)
	}
	return m, r.err
}

type vioMsg struct {
	unit int
	vios []validate.Violation
}

func encodeVio(dst []byte, m vioMsg) []byte {
	w := wbuf{b: dst[:0]}
	w.u32(uint32(m.unit))
	w.u32(uint32(len(m.vios)))
	for _, v := range m.vios {
		w.str(v.Rule)
		w.u32(uint32(len(v.Match)))
		for _, id := range v.Match {
			w.u64(uint64(id))
		}
	}
	return w.b
}

// decodeVio parses a VIO. Match IDs are decoded as decodeAssign decodes
// node IDs; whether they name nodes of the graph is the coordinator's
// check.
func decodeVio(b []byte) (vioMsg, error) {
	r := rbuf{b: b}
	var m vioMsg
	m.unit = int(r.u32())
	n := r.count(8)
	m.vios = make([]validate.Violation, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		var v validate.Violation
		v.Rule = r.str()
		nm := r.count(8)
		v.Match = make(core.Match, nm)
		for j := range v.Match {
			v.Match[j] = r.node()
		}
		m.vios = append(m.vios, v)
	}
	return m, r.err
}

type doneMsg struct {
	unit int
	wall time.Duration // the unit's measured wall on the worker
}

func encodeDone(dst []byte, m doneMsg) []byte {
	w := wbuf{b: dst[:0]}
	w.u32(uint32(m.unit))
	w.i64(int64(m.wall))
	return w.b
}

func decodeDone(b []byte) (doneMsg, error) {
	r := rbuf{b: b}
	m := doneMsg{unit: int(r.u32()), wall: time.Duration(r.i64())}
	return m, r.err
}
