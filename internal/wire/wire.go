// Package wire defines the serving layer's request/response protocol —
// a compact, RESP-like binary framing shared by the server
// (internal/server), the closed-loop load generator (internal/loadgen)
// and any other client. DESIGN.md §8 documents the layer.
//
// # Framing
//
// Every message is one frame: a 4-byte big-endian payload length
// followed by the payload. The first payload byte is an opcode (request)
// or tag (response); the rest is fixed-width big-endian fields, so
// encoding and decoding are allocation-free for every message except
// STATS. Payload lengths are bounded by MaxFrame; a decoder never
// allocates more than a declared (and validated) length, so malformed
// or adversarial input cannot drive memory growth (FuzzWireDecode locks
// this in).
//
// # Requests
//
//	op       payload after the opcode byte
//	INSERT   key (8)          -> Bool
//	DELETE   key (8)          -> Bool
//	CONTAINS key (8)          -> Bool
//	SCAN     a, b (16)        -> Batch* Done   (streamed)
//	COUNT    a, b (16)        -> Int
//	MIN      -                -> Key
//	MAX      -                -> Key
//	SUCC     key (8)          -> Key
//	PRED     key (8)          -> Key
//	LEN      -                -> Int
//	STATS    -                -> Stats
//	MBATCH   n×(op (1) + key (8))    -> BoolVec  (n ≥ 0, sub-ops INSERT/DELETE/CONTAINS)
//	MLOAD    last (1) + m×key (8)    -> Int | Err  (reply after the last chunk only)
//
// # Responses
//
//	tag      payload after the tag byte
//	Bool     0|1 (1)
//	Int      value (8)
//	Key      ok (1) + key (8)
//	Batch    keys (8×n, n ≥ 1)  — one chunk of a streaming SCAN reply
//	Done     total (8)          — terminates a SCAN reply stream
//	Stats    JSON bytes
//	Err      UTF-8 message
//	BoolVec  n×(0|1), one result byte per MBATCH sub-op, in order
//
// # Pipelining
//
// A client may write any number of requests before reading replies; the
// server answers strictly in request order, one logical reply per
// request. The only multi-frame reply is SCAN's: zero or more Batch
// frames followed by exactly one Done, all belonging to the single SCAN
// that is next in pipeline order — so a pipelined reader that treats
// Batch frames as continuations of the current SCAN never misattributes
// a frame. Streaming SCAN chunks (rather than one giant frame) keeps
// MaxFrame small and lets wide scans overlap with the client's read
// loop.
//
// MLOAD is the one multi-frame REQUEST: a run of MLOAD frames on a
// connection, terminated by the first frame whose last flag is set, forms
// ONE logical bulk-ingest request answered by a single Int (keys newly
// added) or Err reply. Frames of a run must be contiguous — any other
// opcode arriving mid-run is a protocol error — and keys must ascend
// strictly across the whole run.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Op is a request opcode.
type Op uint8

// Request opcodes. Zero is invalid so an all-zero frame never parses.
const (
	OpInsert Op = iota + 1
	OpDelete
	OpContains
	OpScan
	OpCount
	OpMin
	OpMax
	OpSucc
	OpPred
	OpLen
	OpStats
	OpMBatch
	OpMLoad

	opEnd // one past the last valid opcode
)

// OpLimit is one past the largest valid opcode value — the size of a
// per-opcode lookup array indexed by Op.
const OpLimit = int(opEnd)

var opNames = [opEnd]string{
	OpInsert: "INSERT", OpDelete: "DELETE", OpContains: "CONTAINS",
	OpScan: "SCAN", OpCount: "COUNT", OpMin: "MIN", OpMax: "MAX",
	OpSucc: "SUCC", OpPred: "PRED", OpLen: "LEN", OpStats: "STATS",
	OpMBatch: "MBATCH", OpMLoad: "MLOAD",
}

// String returns the protocol name of the opcode.
func (o Op) String() string {
	if o < opEnd && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Ops returns every valid opcode, in protocol order.
func Ops() []Op {
	ops := make([]Op, 0, int(opEnd)-1)
	for o := Op(1); o < opEnd; o++ {
		ops = append(ops, o)
	}
	return ops
}

// Response tags. They share a byte space with opcodes but start high so
// a reply frame can never be mistaken for a request frame.
const (
	TagBool    uint8 = 0xB0 + iota // body: 1 byte, 0 or 1
	TagInt                         // body: 8-byte big-endian int64
	TagKey                         // body: ok byte + 8-byte key
	TagBatch                       // body: n×8 key bytes, n ≥ 1
	TagDone                        // body: 8-byte total key count of the scan
	TagStats                       // body: JSON
	TagErr                         // body: UTF-8 message
	TagBoolVec                     // body: n bytes, each 0 or 1 (one per MBATCH sub-op)

	tagEnd
)

// MaxFrame is the largest accepted payload length. Requests are ≤ 17
// bytes; the widest replies are SCAN batches (ScanBatchCap keys) and
// STATS JSON, both far under this. Decoders reject bigger declared
// lengths before allocating.
const MaxFrame = 1 << 16

// ScanBatchCap is the largest number of keys an encoder will put in one
// Batch frame (8×ScanBatchCap + 1 ≤ MaxFrame).
const ScanBatchCap = 4096

// MBatchCap is the largest number of sub-ops one MBATCH frame holds
// (9×MBatchCap + 1 ≤ MaxFrame); it also bounds BoolVec replies. The
// Client splits larger batches transparently.
const MBatchCap = (MaxFrame - 1) / 9

// MLoadChunkCap is the largest number of keys one MLOAD frame holds
// (8×MLoadChunkCap + 2 ≤ MaxFrame). The Client chunks larger loads
// transparently; the logical request has no size limit of its own.
const MLoadChunkCap = (MaxFrame - 2) / 8

// ErrMalformed reports a structurally invalid frame (bad length for the
// opcode/tag, unknown opcode/tag, or a declared length outside
// [1, MaxFrame]). It is wrapped with detail; match with errors.Is.
var ErrMalformed = errors.New("wire: malformed frame")

// BatchEntry is one sub-operation of an MBATCH request: a point opcode
// (OpInsert, OpDelete or OpContains) and its key.
type BatchEntry struct {
	Op  Op
	Key int64
}

// Request is one decoded request. A holds the key of single-key ops and
// the lower bound of SCAN/COUNT; B the upper bound. Ops is MBATCH's
// sub-op vector; Keys and Last are MLOAD's chunk payload and final-chunk
// flag. On decoded requests Ops and Keys alias the decoder's internal
// buffer — valid only until the next decode call; copy to retain.
type Request struct {
	Op   Op
	A, B int64
	Ops  []BatchEntry // MBATCH sub-ops
	Keys []int64      // MLOAD chunk keys
	Last bool         // MLOAD: this chunk terminates the run
}

// arity returns how many int64 arguments op carries; -1 marks opcodes
// with variable-length payloads (and unknown ones), which Request
// encoding/decoding handles out of line.
func (o Op) arity() int {
	switch o {
	case OpInsert, OpDelete, OpContains, OpSucc, OpPred:
		return 1
	case OpScan, OpCount:
		return 2
	case OpMin, OpMax, OpLen, OpStats:
		return 0
	}
	return -1
}

// Response is one decoded reply frame. Which fields are meaningful
// depends on Tag: Bool (TagBool), Int (TagInt and TagDone), OK+Int
// (TagKey: Int is the key), Keys (TagBatch), Blob (TagStats, the JSON),
// Msg (TagErr), Bools (TagBoolVec).
//
// Keys, Blob and Bools alias the decoder's internal buffers: they are
// valid only until the next decode call. Copy them to retain.
type Response struct {
	Tag   uint8
	Bool  bool
	OK    bool
	Int   int64
	Keys  []int64
	Blob  []byte
	Msg   string
	Bools []bool
}

// IsScanChunk reports whether the frame is part of a streaming SCAN
// reply (a Batch continuation or the terminating Done).
func (r *Response) IsScanChunk() bool { return r.Tag == TagBatch || r.Tag == TagDone }

// An Encoder writes frames to a buffered writer. Writes accumulate in
// the buffer until Flush (or until the buffer fills); the server flushes
// when its request pipeline drains, clients before switching to reads.
// Not safe for concurrent use.
type Encoder struct {
	w       *bufio.Writer
	scratch [4 + 1 + 16]byte
}

// bufSize is the bufio buffer size of encoders and decoders — the
// batching unit of the serving layer's socket IO.
const bufSize = 4096

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: bufio.NewWriterSize(w, bufSize)}
}

// Flush writes everything buffered to the underlying writer.
func (e *Encoder) Flush() error { return e.w.Flush() }

// Buffered returns the number of bytes waiting for a Flush.
func (e *Encoder) Buffered() int { return e.w.Buffered() }

// header stages a frame header plus the lead byte into scratch.
func (e *Encoder) header(payloadLen int, lead uint8) []byte {
	binary.BigEndian.PutUint32(e.scratch[:4], uint32(payloadLen))
	e.scratch[4] = lead
	return e.scratch[:5]
}

// fixed writes a frame whose payload is the lead byte plus extra.
func (e *Encoder) fixed(lead uint8, extra []byte) error {
	if _, err := e.w.Write(e.header(1+len(extra), lead)); err != nil {
		return err
	}
	_, err := e.w.Write(extra)
	return err
}

// Request writes one request frame. MBATCH takes its sub-ops from r.Ops
// and MLOAD its chunk from r.Keys and r.Last; every other opcode uses
// A/B.
func (e *Encoder) Request(r Request) error {
	switch r.Op {
	case OpMBatch:
		return e.MBatch(r.Ops)
	case OpMLoad:
		return e.MLoad(r.Keys, r.Last)
	}
	n := r.Op.arity()
	if n < 0 {
		return fmt.Errorf("%w: encoding unknown opcode %d", ErrMalformed, r.Op)
	}
	buf := e.scratch[5:]
	binary.BigEndian.PutUint64(buf[0:8], uint64(r.A))
	binary.BigEndian.PutUint64(buf[8:16], uint64(r.B))
	return e.fixed(uint8(r.Op), buf[:8*n])
}

// MBatch writes one MBATCH request frame carrying ops verbatim (the
// whole frame is one shard-groupable batch; callers with more than
// MBatchCap ops split them — Client.MBatch does so transparently). Only
// OpInsert, OpDelete and OpContains sub-ops are legal; validation
// happens before any bytes are written, so a rejected batch never
// leaves a torn frame in the buffer. Empty batches are legal and get an
// empty BoolVec reply.
func (e *Encoder) MBatch(ops []BatchEntry) error {
	if len(ops) > MBatchCap {
		return fmt.Errorf("%w: MBATCH of %d ops exceeds cap %d", ErrMalformed, len(ops), MBatchCap)
	}
	for _, op := range ops {
		switch op.Op {
		case OpInsert, OpDelete, OpContains:
		default:
			return fmt.Errorf("%w: %v is not an MBATCH sub-op", ErrMalformed, op.Op)
		}
	}
	if _, err := e.w.Write(e.header(1+9*len(ops), uint8(OpMBatch))); err != nil {
		return err
	}
	var rec [9]byte
	for _, op := range ops {
		rec[0] = uint8(op.Op)
		binary.BigEndian.PutUint64(rec[1:], uint64(op.Key))
		if _, err := e.w.Write(rec[:]); err != nil {
			return err
		}
	}
	return nil
}

// MLoad writes one MLOAD chunk of up to MLoadChunkCap keys; last marks
// the chunk that terminates the logical bulk-ingest request. Empty
// chunks are legal (a load of zero keys is one empty last chunk).
func (e *Encoder) MLoad(keys []int64, last bool) error {
	if len(keys) > MLoadChunkCap {
		return fmt.Errorf("%w: MLOAD chunk of %d keys exceeds cap %d", ErrMalformed, len(keys), MLoadChunkCap)
	}
	flag := byte(0)
	if last {
		flag = 1
	}
	if _, err := e.w.Write(e.header(2+8*len(keys), uint8(OpMLoad))); err != nil {
		return err
	}
	if err := e.w.WriteByte(flag); err != nil {
		return err
	}
	var kb [8]byte
	for _, k := range keys {
		binary.BigEndian.PutUint64(kb[:], uint64(k))
		if _, err := e.w.Write(kb[:]); err != nil {
			return err
		}
	}
	return nil
}

// Bool writes a TagBool reply.
func (e *Encoder) Bool(v bool) error {
	b := byte(0)
	if v {
		b = 1
	}
	return e.fixed(TagBool, []byte{b})
}

// Int writes a TagInt reply.
func (e *Encoder) Int(v int64) error {
	buf := e.scratch[5:13]
	binary.BigEndian.PutUint64(buf, uint64(v))
	return e.fixed(TagInt, buf)
}

// Key writes a TagKey reply ("smallest/largest such key, if any").
func (e *Encoder) Key(k int64, ok bool) error {
	buf := e.scratch[5:14]
	buf[0] = 0
	if ok {
		buf[0] = 1
	}
	binary.BigEndian.PutUint64(buf[1:], uint64(k))
	return e.fixed(TagKey, buf)
}

// Batch writes one TagBatch chunk of a streaming SCAN reply. Empty
// batches are silently skipped (the protocol forbids them); batches over
// ScanBatchCap are rejected.
func (e *Encoder) Batch(keys []int64) error {
	if len(keys) == 0 {
		return nil
	}
	if len(keys) > ScanBatchCap {
		return fmt.Errorf("%w: batch of %d keys exceeds cap %d", ErrMalformed, len(keys), ScanBatchCap)
	}
	if _, err := e.w.Write(e.header(1+8*len(keys), TagBatch)); err != nil {
		return err
	}
	var kb [8]byte
	for _, k := range keys {
		binary.BigEndian.PutUint64(kb[:], uint64(k))
		if _, err := e.w.Write(kb[:]); err != nil {
			return err
		}
	}
	return nil
}

// Done terminates a streaming SCAN reply with its total key count.
func (e *Encoder) Done(total int64) error {
	buf := e.scratch[5:13]
	binary.BigEndian.PutUint64(buf, uint64(total))
	return e.fixed(TagDone, buf)
}

// BoolVec writes a TagBoolVec reply: one result byte per MBATCH sub-op,
// in sub-op order. Empty vectors are legal (the reply to an empty
// MBATCH).
func (e *Encoder) BoolVec(vals []bool) error {
	if len(vals) > MBatchCap {
		return fmt.Errorf("%w: BoolVec of %d results exceeds cap %d", ErrMalformed, len(vals), MBatchCap)
	}
	if _, err := e.w.Write(e.header(1+len(vals), TagBoolVec)); err != nil {
		return err
	}
	for _, v := range vals {
		b := byte(0)
		if v {
			b = 1
		}
		if err := e.w.WriteByte(b); err != nil {
			return err
		}
	}
	return nil
}

// Stats writes a TagStats reply carrying a JSON document.
func (e *Encoder) Stats(json []byte) error {
	if 1+len(json) > MaxFrame {
		return fmt.Errorf("%w: stats payload %d bytes exceeds MaxFrame", ErrMalformed, len(json))
	}
	return e.fixed(TagStats, json)
}

// Error writes a TagErr reply. Messages are truncated to fit MaxFrame.
func (e *Encoder) Error(msg string) error {
	if 1+len(msg) > MaxFrame {
		msg = msg[:MaxFrame-1]
	}
	return e.fixed(TagErr, []byte(msg))
}

// A Decoder reads frames from a buffered reader. The returned Response
// slices alias an internal buffer reused across calls. Not safe for
// concurrent use.
//
// Decoding is resumable across read deadlines: if the underlying reader
// returns a timeout (or any transient) error mid-frame, the partial
// frame is retained and the next decode call continues where it left
// off. The server's graceful drain relies on this — it interrupts
// blocked reads with deadlines and must not lose a half-received
// request.
type Decoder struct {
	r     *bufio.Reader
	buf   []byte
	keys  []int64
	ops   []BatchEntry
	bools []bool

	// In-flight frame state (survives transient read errors).
	hdr    [4]byte
	hdrN   int // header bytes received
	payLen int // validated payload length; 0 = header not yet validated
	payN   int // payload bytes received
}

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReaderSize(r, bufSize)}
}

// Buffered returns the number of bytes already read from the underlying
// reader but not yet decoded — on a server, the request pipeline still
// pending, which gates output flushes.
func (d *Decoder) Buffered() int { return d.r.Buffered() }

// FrameBuffered reports whether the next frame is already whole in the
// read buffer (counting any partial frame a previous call staged), so
// that decoding it cannot block on the underlying reader. A header that
// declares an invalid length counts as whole: decoding it fails at once.
func (d *Decoder) FrameBuffered() bool {
	n := d.r.Buffered()
	if d.payLen > 0 {
		return n >= d.payLen-d.payN
	}
	need := 4 - d.hdrN
	if n < need {
		return false
	}
	var hdr [4]byte
	copy(hdr[:], d.hdr[:d.hdrN])
	rest, _ := d.r.Peek(need) // cannot fail: need <= Buffered
	copy(hdr[d.hdrN:], rest)
	pl := binary.BigEndian.Uint32(hdr[:])
	return pl == 0 || pl > MaxFrame || n-need >= int(pl)
}

// frame reads one length-prefixed payload into the reusable buffer.
// The length is validated BEFORE any allocation, so a hostile 4GB
// declared length costs nothing; actual allocation is ≤ MaxFrame, once,
// amortized across calls. io.EOF is returned untouched only on a clean
// frame boundary; EOF mid-frame is a truncation error. Any other read
// error (a deadline expiry, typically) leaves the partial frame staged
// for the next call.
func (d *Decoder) frame() ([]byte, error) {
	for d.hdrN < 4 {
		n, err := d.r.Read(d.hdr[d.hdrN:])
		d.hdrN += n
		if d.hdrN == 4 {
			break
		}
		if err != nil {
			if err == io.EOF {
				if d.hdrN == 0 {
					return nil, io.EOF // clean end-of-stream
				}
				return nil, fmt.Errorf("wire: truncated frame: %w", io.ErrUnexpectedEOF)
			}
			return nil, err
		}
	}
	if d.payLen == 0 {
		n := binary.BigEndian.Uint32(d.hdr[:])
		if n == 0 || n > MaxFrame {
			return nil, fmt.Errorf("%w: declared payload length %d outside [1, %d]", ErrMalformed, n, MaxFrame)
		}
		d.payLen, d.payN = int(n), 0
		if cap(d.buf) < int(n) {
			d.buf = make([]byte, n)
		}
	}
	buf := d.buf[:d.payLen]
	for d.payN < d.payLen {
		n, err := d.r.Read(buf[d.payN:])
		d.payN += n
		if d.payN == d.payLen {
			break
		}
		if err != nil {
			if err == io.EOF {
				return nil, fmt.Errorf("wire: truncated frame: %w", io.ErrUnexpectedEOF)
			}
			return nil, err
		}
	}
	d.hdrN, d.payLen, d.payN = 0, 0, 0
	return buf, nil
}

// Request decodes one request frame. io.EOF (clean close between
// frames) passes through unwrapped so servers can distinguish an orderly
// disconnect from protocol garbage. The Ops and Keys of MBATCH/MLOAD
// requests alias internal buffers; see Request.
func (d *Decoder) Request() (Request, error) {
	buf, err := d.frame()
	if err != nil {
		return Request{}, err
	}
	op := Op(buf[0])
	switch op {
	case OpMBatch:
		return d.mbatch(buf[1:])
	case OpMLoad:
		return d.mload(buf[1:])
	}
	n := op.arity()
	if n < 0 {
		return Request{}, fmt.Errorf("%w: unknown opcode %d", ErrMalformed, buf[0])
	}
	if len(buf) != 1+8*n {
		return Request{}, fmt.Errorf("%w: %v payload is %d bytes, want %d", ErrMalformed, op, len(buf)-1, 8*n)
	}
	req := Request{Op: op}
	if n >= 1 {
		req.A = int64(binary.BigEndian.Uint64(buf[1:9]))
	}
	if n >= 2 {
		req.B = int64(binary.BigEndian.Uint64(buf[9:17]))
	}
	return req, nil
}

// mbatch decodes an MBATCH body: n 9-byte (sub-op, key) records, n ≥ 0.
func (d *Decoder) mbatch(body []byte) (Request, error) {
	if len(body)%9 != 0 {
		return Request{}, fmt.Errorf("%w: MBATCH body of %d bytes is not a record multiple", ErrMalformed, len(body))
	}
	n := len(body) / 9
	if cap(d.ops) < n {
		d.ops = make([]BatchEntry, n)
	}
	ops := d.ops[:n]
	for i := range ops {
		rec := body[9*i:]
		sub := Op(rec[0])
		switch sub {
		case OpInsert, OpDelete, OpContains:
		default:
			return Request{}, fmt.Errorf("%w: byte %d is not an MBATCH sub-op", ErrMalformed, rec[0])
		}
		ops[i] = BatchEntry{Op: sub, Key: int64(binary.BigEndian.Uint64(rec[1:9]))}
	}
	return Request{Op: OpMBatch, Ops: ops}, nil
}

// mload decodes an MLOAD body: a last-chunk flag byte plus m 8-byte
// keys, m ≥ 0.
func (d *Decoder) mload(body []byte) (Request, error) {
	if len(body) == 0 || body[0] > 1 || (len(body)-1)%8 != 0 {
		return Request{}, fmt.Errorf("%w: bad MLOAD body of %d bytes", ErrMalformed, len(body))
	}
	last, body := body[0] == 1, body[1:]
	m := len(body) / 8
	if cap(d.keys) < m {
		d.keys = make([]int64, m)
	}
	keys := d.keys[:m]
	for i := range keys {
		keys[i] = int64(binary.BigEndian.Uint64(body[8*i:]))
	}
	return Request{Op: OpMLoad, Keys: keys, Last: last}, nil
}

// Response decodes one reply frame. Keys and Blob alias internal
// buffers; see Response.
func (d *Decoder) Response() (Response, error) {
	buf, err := d.frame()
	if err != nil {
		return Response{}, err
	}
	tag, body := buf[0], buf[1:]
	resp := Response{Tag: tag}
	switch tag {
	case TagBool:
		if len(body) != 1 || body[0] > 1 {
			return Response{}, fmt.Errorf("%w: bad Bool body", ErrMalformed)
		}
		resp.Bool = body[0] == 1
	case TagInt, TagDone:
		if len(body) != 8 {
			return Response{}, fmt.Errorf("%w: bad Int body length %d", ErrMalformed, len(body))
		}
		resp.Int = int64(binary.BigEndian.Uint64(body))
	case TagKey:
		if len(body) != 9 || body[0] > 1 {
			return Response{}, fmt.Errorf("%w: bad Key body", ErrMalformed)
		}
		resp.OK = body[0] == 1
		resp.Int = int64(binary.BigEndian.Uint64(body[1:]))
	case TagBatch:
		if len(body) == 0 || len(body)%8 != 0 {
			return Response{}, fmt.Errorf("%w: Batch body of %d bytes", ErrMalformed, len(body))
		}
		n := len(body) / 8
		if cap(d.keys) < n {
			d.keys = make([]int64, n)
		}
		keys := d.keys[:n]
		for i := range keys {
			keys[i] = int64(binary.BigEndian.Uint64(body[8*i:]))
		}
		resp.Keys = keys
	case TagStats:
		resp.Blob = body
	case TagErr:
		resp.Msg = string(body)
	case TagBoolVec:
		if cap(d.bools) < len(body) {
			d.bools = make([]bool, len(body))
		}
		vals := d.bools[:len(body)]
		for i, b := range body {
			if b > 1 {
				return Response{}, fmt.Errorf("%w: bad BoolVec byte %d", ErrMalformed, b)
			}
			vals[i] = b == 1
		}
		resp.Bools = vals
	default:
		return Response{}, fmt.Errorf("%w: unknown response tag %d", ErrMalformed, tag)
	}
	return resp, nil
}
