package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
	"repro/internal/workload"
)

// countConn counts the bytes a client moves through its socket. Read is
// called only by the reading goroutine and Write only by the writing
// one, so each counter has a single writer.
type countConn struct {
	net.Conn
	rd, wr int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rd += int64(n)
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wr += int64(n)
	return n, err
}

// client is one driver connection, speaking internal/wire directly so
// that it controls flushing and times every request itself.
type client struct {
	cc  *countConn
	enc *wire.Encoder
	dec *wire.Decoder
}

func dial(addr string) (*client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cc := &countConn{Conn: nc}
	return &client{cc: cc, enc: wire.NewEncoder(cc), dec: wire.NewDecoder(cc)}, nil
}

func (c *client) bytes() int64 { return c.cc.rd + c.cc.wr }

// reqKind is the shape of a request's reply.
type reqKind uint8

const (
	reqPoint reqKind = iota // one Bool
	reqBatch                // one BoolVec
	reqScan                 // Batch frames closed by Done
)

// pending is what the reply reader needs to know about a sent request.
type pending struct {
	due  int64 // open loop: intended send time, ns since the epoch
	kind reqKind
	a, b int64  // scan bounds
	n    int    // logical ops carried (MBATCH sub-ops count one each)
	upd  uint64 // bit i set: sub-op i is an Insert or Delete
}

// gen turns a deterministic workload.Stream into wire requests.
type gen struct {
	s     *workload.Stream
	batch int
	ents  []wire.BatchEntry
}

func newGen(w spec, seed uint64) *gen {
	cfg := workload.StreamConfig{Mix: w.mix, KeyRange: w.keyRange}
	return &gen{s: workload.NewStream(cfg, seed), batch: w.batch, ents: make([]wire.BatchEntry, w.batch)}
}

// skip draws the ops of one request without sending it and returns how
// many logical ops it carried.
func (g *gen) skip() int64 {
	n := 1
	if g.batch > 0 {
		n = g.batch
	}
	for i := 0; i < n; i++ {
		g.s.Next()
	}
	return int64(n)
}

var pointOps = [...]wire.Op{workload.OpInsert: wire.OpInsert, workload.OpDelete: wire.OpDelete, workload.OpFind: wire.OpContains}

// send encodes the next request into c's write buffer (not flushed).
func (g *gen) send(c *client) (pending, error) {
	if g.batch > 0 {
		var upd uint64
		for i := range g.ents {
			op := g.s.Next()
			g.ents[i] = wire.BatchEntry{Op: pointOps[op.Kind], Key: op.A}
			if op.Kind != workload.OpFind {
				upd |= 1 << i
			}
		}
		return pending{kind: reqBatch, n: g.batch, upd: upd}, c.enc.MBatch(g.ents)
	}
	op := g.s.Next()
	if op.Kind == workload.OpScan {
		return pending{kind: reqScan, a: op.A, b: op.B, n: 1}, c.enc.Request(wire.Request{Op: wire.OpScan, A: op.A, B: op.B})
	}
	p := pending{kind: reqPoint, n: 1}
	if op.Kind != workload.OpFind {
		p.upd = 1
	}
	return p, c.enc.Request(wire.Request{Op: pointOps[op.Kind], A: op.A})
}

// tally counts what happened to the ops of one phase on one connection.
type tally struct {
	attempted int64 // logical ops generated, including drops
	completed int64 // logical ops answered without error
	errReply  int64 // logical ops answered with an Err reply
	transport int64 // logical ops lost to a transport or protocol failure
	dropped   int64 // open loop: arrivals not sent, in-flight window full
	effective int64 // updates that changed the set (true replies)
	badScans  int64 // SCAN replies out of order, outside [a, b], or miscounted
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.completed += o.completed
	t.errReply += o.errReply
	t.transport += o.transport
	t.dropped += o.dropped
	t.effective += o.effective
	t.badScans += o.badScans
}

// failed is the count the benchmark reports as failed: error replies,
// transport failures and open-loop drops.
func (t tally) failed() int64 { return t.errReply + t.transport + t.dropped }

var errProtocol = errors.New("unexpected reply")

// readReply reads p's whole reply and accounts for it. A non-nil error
// means the connection can no longer be trusted.
func readReply(c *client, p pending, t *tally) error {
	resp, err := c.dec.Response()
	if err != nil {
		return err
	}
	if resp.Tag == wire.TagErr {
		t.errReply += int64(p.n)
		return nil
	}
	switch p.kind {
	case reqPoint:
		if resp.Tag != wire.TagBool {
			return fmt.Errorf("%w: tag %#x to a point request", errProtocol, resp.Tag)
		}
		if p.upd != 0 && resp.Bool {
			t.effective++
		}
	case reqBatch:
		if resp.Tag != wire.TagBoolVec || len(resp.Bools) != p.n {
			return fmt.Errorf("%w: tag %#x with %d results to an MBATCH of %d", errProtocol, resp.Tag, len(resp.Bools), p.n)
		}
		for i, ok := range resp.Bools {
			if ok && p.upd&(1<<i) != 0 {
				t.effective++
			}
		}
	case reqScan:
		bad, err := readScan(c, resp, p.a, p.b)
		if err != nil {
			return err
		}
		if bad {
			t.badScans++
		}
	}
	t.completed += int64(p.n)
	return nil
}

// readScan consumes a SCAN reply starting at first and reports whether
// it broke the reply's rules: keys strictly ascending, inside [a, b], and as
// many as Done declares.
func readScan(c *client, first wire.Response, a, b int64) (bad bool, err error) {
	var n int64
	prev := int64(math.MinInt64)
	for resp := first; ; {
		switch resp.Tag {
		case wire.TagBatch:
			for _, k := range resp.Keys {
				if k <= prev || k < a || k > b {
					bad = true
				}
				prev = k
				n++
			}
		case wire.TagDone:
			return bad || resp.Int != n, nil
		default:
			return false, fmt.Errorf("%w: tag %#x inside a SCAN reply", errProtocol, resp.Tag)
		}
		if resp, err = c.dec.Response(); err != nil {
			return false, err
		}
	}
}

// window is the closed loop's throughput sampling interval: capacity is
// the median of per-window rates, so a transient stall (a Compact pass,
// a GC cycle, a noisy neighbour) moves one window, not the result.
const window = 100 * time.Millisecond

// phaseResult is everything one phase measured, over all connections.
type phaseResult struct {
	tally
	elapsed time.Duration
	perWin  []int64    // closed loop: logical ops completed in each window
	point   []int64    // latency of point and MBATCH requests, ns
	scan    []int64    // latency of SCAN requests, ns
	late    []int64    // open loop: flush time minus intended send time, ns
	client  []interval // rtt: per-request client spans of point and MBATCH requests
	bytes   int64      // client socket bytes read plus written
	err     error      // first transport or protocol failure
}

func (r *phaseResult) merge(o *phaseResult) {
	r.tally.add(o.tally)
	r.point = append(r.point, o.point...)
	r.scan = append(r.scan, o.scan...)
	r.late = append(r.late, o.late...)
	r.client = append(r.client, o.client...)
	for i, n := range o.perWin {
		if i == len(r.perWin) {
			r.perWin = append(r.perWin, 0)
		}
		r.perWin[i] += n
	}
	r.bytes += o.bytes
	if r.err == nil {
		r.err = o.err
	}
}

// addRound appends one round of a phase to the phase's running result.
func (r *phaseResult) addRound(o *phaseResult) {
	windows := r.perWin
	r.perWin = nil
	r.merge(o)
	r.perWin = append(windows, o.perWin...)
	r.elapsed += o.elapsed
}

func (r *phaseResult) record(p pending, start, end int64) {
	if p.kind == reqScan {
		r.scan = append(r.scan, end-start)
		return
	}
	r.point = append(r.point, end-start)
}

func since(epoch time.Time) int64 { return int64(time.Since(epoch)) }

// runRTT is the unqueued service path: one connection, one request in
// flight, closed loop.
func runRTT(c *client, g *gen, epoch time.Time, dur time.Duration) *phaseResult {
	r := &phaseResult{}
	b0 := c.bytes()
	start := time.Now()
	for time.Since(start) < dur {
		t0 := since(epoch)
		p, err := g.send(c)
		if err == nil {
			err = c.enc.Flush()
		}
		r.attempted += int64(p.n)
		if err == nil {
			err = readReply(c, p, &r.tally)
		}
		if err != nil {
			r.transport += int64(p.n)
			r.err = err
			break
		}
		t1 := since(epoch)
		r.record(p, t0, t1)
		if p.kind != reqScan {
			r.client = append(r.client, interval{t0, t1})
		}
	}
	r.elapsed = time.Since(start)
	r.bytes = c.bytes() - b0
	return r
}

// runClosed measures capacity: every connection keeps depth requests in
// flight, sending the next as each reply arrives, and flushes only when
// no further reply is already buffered. It counts completions per
// window; see throughput.
func runClosed(cs []*client, gs []*gen, depth int, dur time.Duration) *phaseResult {
	parts := make([]*phaseResult, len(cs))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i] = closedConn(cs[i], gs[i], depth, start, deadline)
		}(i)
	}
	wg.Wait()
	r := &phaseResult{}
	for _, p := range parts {
		r.merge(p)
	}
	r.elapsed = time.Since(start)
	return r
}

// throughput is the median over whole windows of completed ops/s.
func (r *phaseResult) throughput() float64 {
	rates := make([]float64, len(r.perWin))
	for i, n := range r.perWin {
		rates[i] = float64(n) / window.Seconds()
	}
	return median(rates)
}

func closedConn(c *client, g *gen, depth int, start, deadline time.Time) *phaseResult {
	r := &phaseResult{perWin: make([]int64, deadline.Sub(start)/window)}
	b0 := c.bytes()
	ring := make([]pending, depth)
	head, inflight := 0, 0
	fail := func(err error) *phaseResult {
		for ; inflight > 0; inflight-- {
			r.transport += int64(ring[head].n)
			head = (head + 1) % depth
		}
		r.err = err
		r.bytes = c.bytes() - b0
		return r
	}
	for ; inflight < depth; inflight++ {
		p, err := g.send(c)
		r.attempted += int64(p.n)
		ring[inflight] = p
		if err != nil {
			inflight++
			return fail(err)
		}
	}
	if err := c.enc.Flush(); err != nil {
		return fail(err)
	}
	for inflight > 0 {
		done := r.completed
		if err := readReply(c, ring[head], &r.tally); err != nil {
			return fail(err)
		}
		head = (head + 1) % depth
		inflight--
		now := time.Now()
		if w := int(now.Sub(start) / window); w < len(r.perWin) {
			r.perWin[w] += r.completed - done
		}
		if now.Before(deadline) {
			p, err := g.send(c)
			r.attempted += int64(p.n)
			ring[(head+inflight)%depth] = p
			inflight++
			if err != nil {
				return fail(err)
			}
		}
		if c.dec.Buffered() == 0 && c.enc.Buffered() > 0 {
			if err := c.enc.Flush(); err != nil {
				return fail(err)
			}
		}
	}
	r.bytes = c.bytes() - b0
	return r
}

// openWindow bounds the requests one connection may have in flight in
// the open loop; an arrival that finds it full is dropped and counted as
// failed. At the fixed rates (about half of capacity) it never fills.
const openWindow = 4096

// spinFloor is the shortest wait worth sleeping for: below it the
// timerfd wake-up cost would make the send later, not earlier.
const spinFloor = 5 * time.Microsecond

// runOpen offers Poisson arrivals at rate ops/s, split evenly over the
// connections, and times every request from its intended send time, so
// any stall (in the generator, the socket or the server) lands in the
// latency of every request it delays.
func runOpen(cs []*client, gs []*gen, w spec, rate float64, seed uint64, epoch time.Time, dur time.Duration) *phaseResult {
	parts := make([]*phaseResult, len(cs))
	start := since(epoch)
	end := start + int64(dur)
	reqRate := rate / float64(len(cs))
	if w.batch > 0 {
		reqRate /= float64(w.batch)
	}
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i] = openConn(cs[i], gs[i], workload.NewRNG(seed+uint64(i)), reqRate, epoch, start, end)
		}(i)
	}
	wg.Wait()
	r := &phaseResult{}
	for _, p := range parts {
		r.merge(p)
	}
	r.elapsed = time.Duration(since(epoch) - start)
	return r
}

func openConn(c *client, g *gen, rng *workload.RNG, reqRate float64, epoch time.Time, start, end int64) *phaseResult {
	r := &phaseResult{}
	b0 := c.bytes()
	ch := make(chan pending, openWindow)
	recv := &phaseResult{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var err error
		for p := range ch {
			if err != nil {
				recv.transport += int64(p.n)
				continue
			}
			if err = readReply(c, p, &recv.tally); err != nil {
				recv.transport += int64(p.n)
				recv.err = err
				c.cc.Close() // stops the sender at its next write
				continue
			}
			recv.record(p, p.due, since(epoch))
		}
	}()

	pc, err := newPacer()
	if err != nil {
		r.err = err
		close(ch)
		<-done
		return r
	}
	defer pc.close() //nolint:errcheck // a timerfd has nothing to flush
	interval := func() int64 { return int64(-math.Log(1-rng.Float64()) / reqRate * 1e9) }
	dues := make([]int64, 0, 64)
	for next := start + interval(); next < end && r.err == nil; {
		now := since(epoch)
		if wait := next - now; wait > int64(spinFloor) {
			if err := pc.sleep(time.Duration(wait)); err != nil {
				r.err = err
				break
			}
			now = since(epoch)
		}
		dues = dues[:0]
		for ; next <= now && next < end; next += interval() {
			if len(ch) == cap(ch) {
				// The window is full: the arrival is lost, but its ops are
				// still drawn so later requests stay the same.
				n := g.skip()
				r.attempted += n
				r.dropped += n
				continue
			}
			p, err := g.send(c)
			p.due = next
			r.attempted += int64(p.n)
			ch <- p
			if err != nil {
				r.err = err
				break
			}
			dues = append(dues, next)
		}
		if len(dues) > 0 && r.err == nil {
			if err := c.enc.Flush(); err != nil {
				r.err = err
			}
			sent := since(epoch)
			for _, d := range dues {
				r.late = append(r.late, sent-d)
			}
		}
	}
	if r.err != nil {
		c.cc.Close() // unblocks the reader, which fails the requests still owed
	}
	close(ch)
	<-done
	r.merge(recv)
	r.bytes = c.bytes() - b0
	return r
}
