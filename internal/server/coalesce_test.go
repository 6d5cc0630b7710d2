package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/bst"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/wire"
)

// recordingStore records the length of every ApplyBatch call.
type recordingStore struct {
	*bst.ShardedMap
	mu   sync.Mutex
	runs []int
}

func newRecordingStore() *recordingStore {
	return &recordingStore{ShardedMap: bst.NewShardedRange(0, 1<<20-1, 4)}
}

func (r *recordingStore) ApplyBatch(ops []bst.BatchOp, res []bool) {
	r.mu.Lock()
	r.runs = append(r.runs, len(ops))
	r.mu.Unlock()
	r.ShardedMap.ApplyBatch(ops, res)
}

func (r *recordingStore) batches() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.runs)
}

// startStore serves store on a loopback port for the test's lifetime.
func startStore(t *testing.T, store Store, cfg Config) *Server {
	t.Helper()
	cfg.Addr, cfg.Store = "127.0.0.1:0", store
	s, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	return s
}

// rawConn dials s without a wire.Client, so a test controls exactly
// which bytes reach the server in one write.
func rawConn(t *testing.T, s *Server) (net.Conn, *wire.Decoder) {
	t.Helper()
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc, wire.NewDecoder(nc)
}

// frames encodes requests into one byte string.
func frames(reqs ...wire.Request) []byte {
	var b bytes.Buffer
	enc := wire.NewEncoder(&b)
	for _, r := range reqs {
		enc.Request(r) //nolint:errcheck // bytes.Buffer cannot fail
	}
	enc.Flush() //nolint:errcheck
	return b.Bytes()
}

// readReply reads one logical reply (a SCAN's Batch frames plus its
// Done, or a single frame) and renders it comparably. STATS documents
// carry timings, so only their tag is kept.
func readReply(dec *wire.Decoder) (string, error) {
	var out string
	for {
		resp, err := dec.Response()
		if err != nil {
			return "", err
		}
		if resp.Tag == wire.TagStats {
			return out + "STATS", nil
		}
		out += fmt.Sprintf("[%d %v %v %d %v %q %v]", resp.Tag, resp.Bool, resp.OK, resp.Int, resp.Keys, resp.Msg, resp.Bools)
		if resp.Tag != wire.TagBatch {
			return out, nil
		}
	}
}

// writeAll writes b from its own goroutine, so a test can read replies
// while a large pipeline is still being sent.
func writeAll(t *testing.T, nc net.Conn, b []byte) *sync.WaitGroup {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := nc.Write(b); err != nil {
			t.Errorf("write: %v", err)
		}
	}()
	return &wg
}

// TestCoalescedRepliesMatchSerial: a pipelined stream mixing point ops
// with SCAN, MBATCH, STATS, COUNT, an out-of-range key and an MLOAD run
// gets the same replies, in the same order, as the same requests served
// one at a time — and the pipelined stream really was coalesced.
func TestCoalescedRepliesMatchSerial(t *testing.T) {
	var logical [][]byte // one entry per logical request (an MLOAD run is one)
	for i := 0; i < 600; i++ {
		k := int64(i*7919) % 64
		switch {
		case i == 300:
			var b bytes.Buffer
			enc := wire.NewEncoder(&b)
			enc.MLoad([]int64{1000, 1001, 1002}, false) //nolint:errcheck
			enc.MLoad([]int64{1003, 1010}, true)        //nolint:errcheck
			enc.Flush()                                 //nolint:errcheck
			logical = append(logical, b.Bytes())
		case i%97 == 0:
			logical = append(logical, frames(wire.Request{Op: wire.OpStats}))
		case i%61 == 0:
			logical = append(logical, frames(wire.Request{Op: wire.OpInsert, A: math.MaxInt64}))
		case i%43 == 0:
			var b bytes.Buffer
			enc := wire.NewEncoder(&b)
			ops := []wire.BatchEntry{{Op: wire.OpInsert, Key: k}, {Op: wire.OpContains, Key: k}, {Op: wire.OpDelete, Key: k + 1}}
			enc.MBatch(ops) //nolint:errcheck // bytes.Buffer cannot fail
			enc.Flush()     //nolint:errcheck
			logical = append(logical, b.Bytes())
		case i%29 == 0:
			logical = append(logical, frames(wire.Request{Op: wire.OpScan, A: 0, B: 2000}))
		case i%31 == 0:
			logical = append(logical, frames(wire.Request{Op: wire.OpCount, A: 0, B: 63}))
		default:
			op := []wire.Op{wire.OpInsert, wire.OpDelete, wire.OpContains}[i%3]
			logical = append(logical, frames(wire.Request{Op: op, A: k}))
		}
	}

	// One at a time: each request's reply is read before the next is sent.
	serialStore := newRecordingStore()
	nc, dec := rawConn(t, startStore(t, serialStore, Config{ScanBatch: 16}))
	var serial []string
	for i, b := range logical {
		if _, err := nc.Write(b); err != nil {
			t.Fatal(err)
		}
		r, err := readReply(dec)
		if err != nil {
			t.Fatalf("serial reply %d: %v", i, err)
		}
		serial = append(serial, r)
	}

	// Pipelined: the whole stream in one write.
	pipeStore := newRecordingStore()
	nc, dec = rawConn(t, startStore(t, pipeStore, Config{ScanBatch: 16}))
	wg := writeAll(t, nc, bytes.Join(logical, nil))
	for i, want := range serial {
		got, err := readReply(dec)
		if err != nil {
			t.Fatalf("pipelined reply %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("reply %d: pipelined %s, serial %s", i, got, want)
		}
	}
	wg.Wait()

	mbatches := len(serialStore.batches()) // depth 1 reaches ApplyBatch only through MBATCH
	if runs := len(pipeStore.batches()) - mbatches; runs <= 0 {
		t.Fatalf("pipelined stream formed no coalesced run (%d ApplyBatch calls, %d MBATCH)", len(pipeStore.batches()), mbatches)
	}
	if got, want := pipeStore.Keys(), serialStore.Keys(); !slices.Equal(got, want) {
		t.Fatalf("final sets differ: pipelined %v, serial %v", got, want)
	}
}

// TestRunsFormOnlyUnderPipelining: pipelined point ops reach the store
// as batches longer than one; depth-1 traffic never forms a run.
func TestRunsFormOnlyUnderPipelining(t *testing.T) {
	rs := newRecordingStore()
	s := startStore(t, rs, Config{})
	c := dialT(t, s)
	for i := int64(0); i < 200; i++ {
		if _, err := c.Insert(i); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Contains(i); err != nil {
			t.Fatal(err)
		}
	}
	if b := rs.batches(); len(b) != 0 {
		t.Fatalf("depth-1 traffic formed runs %v", b)
	}

	const n = 256
	for i := int64(0); i < n; i++ {
		c.Send(wire.Request{Op: wire.OpDelete, A: i}) //nolint:errcheck
	}
	for i := 0; i < n; i++ {
		resp, err := c.Recv()
		if err != nil || resp.Tag != wire.TagBool {
			t.Fatalf("reply %d: %+v, %v", i, resp, err)
		}
		if want := i < 200; resp.Bool != want {
			t.Fatalf("Delete(%d) = %v, want %v", i, resp.Bool, want)
		}
	}
	b := rs.batches()
	if len(b) == 0 || slices.Max(b) < 2 {
		t.Fatalf("pipelined burst of %d formed runs %v, want one longer than 1", n, b)
	}
	if total := sumInts(b); total > n {
		t.Fatalf("runs %v cover %d ops, more than the %d sent", b, total, n)
	}
}

func sumInts(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// blockingStore parks every update until the test releases it (or
// ends), and reports how many ops the parked call carries.
type blockingStore struct {
	*bst.ShardedMap
	entered chan int
	release chan struct{}
	done    chan struct{}
}

func (b *blockingStore) park(n int) {
	select {
	case b.entered <- n:
	case <-b.done:
		return
	}
	select {
	case <-b.release:
	case <-b.done:
	}
}

func (b *blockingStore) ApplyBatch(ops []bst.BatchOp, res []bool) {
	b.park(len(ops))
	b.ShardedMap.ApplyBatch(ops, res)
}

func (b *blockingStore) Insert(k int64) bool {
	b.park(1)
	return b.ShardedMap.Insert(k)
}

// TestRunRepliesWaitForApply: no reply byte of a run leaves the server
// while the run's store batch has not returned (ack-after-apply, which
// for a durable store is ack-after-fsync).
func TestRunRepliesWaitForApply(t *testing.T) {
	bs := &blockingStore{
		ShardedMap: bst.NewShardedRange(0, 1<<20-1, 4),
		entered:    make(chan int),
		release:    make(chan struct{}),
		done:       make(chan struct{}),
	}
	s := startStore(t, bs, Config{})
	t.Cleanup(func() { close(bs.done) }) // runs before the Shutdown cleanup
	nc, dec := rawConn(t, s)
	const n = 64
	var reqs []wire.Request
	for i := int64(0); i < n; i++ {
		reqs = append(reqs, wire.Request{Op: wire.OpInsert, A: i})
	}
	if _, err := nc.Write(frames(reqs...)); err != nil {
		t.Fatal(err)
	}
	applied, received, longest := 0, 0, 0
	for applied < n {
		var k int
		select {
		case k = <-bs.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("server stalled with %d of %d ops applied", applied, n)
		}
		longest = max(longest, k)
		// The store holds k ops; every reply readable now must belong to
		// an op whose call already returned.
		nc.SetReadDeadline(time.Now().Add(20 * time.Millisecond)) //nolint:errcheck
		for {
			resp, err := dec.Response()
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				break
			}
			if err != nil || resp.Tag != wire.TagBool || !resp.Bool {
				t.Fatalf("reply %d: %+v, %v", received, resp, err)
			}
			if received++; received > applied {
				t.Fatalf("reply %d arrived while its op was still inside the store (%d applied)", received-1, applied)
			}
		}
		bs.release <- struct{}{}
		applied += k
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	for ; received < n; received++ {
		if resp, err := dec.Response(); err != nil || resp.Tag != wire.TagBool || !resp.Bool {
			t.Fatalf("reply %d: %+v, %v", received, resp, err)
		}
	}
	if longest < 2 {
		t.Fatal("no run longer than 1 formed: the check above proved nothing")
	}
}

// TestDurableRunsShareWALFrame: behind a group-commit persist.Map,
// pipelined updates share WAL frames (each run is one append and one
// fsync), and the recovered state is exactly the acknowledged one.
func TestDurableRunsShareWALFrame(t *testing.T) {
	dir := t.TempDir()
	pm, _, err := persist.Open(persist.Config{Dir: dir}, bst.NewShardedRange(0, 1<<20-1, 4))
	if err != nil {
		t.Fatal(err)
	}
	s := startStore(t, pm, Config{})
	nc, dec := rawConn(t, s)
	const n = 512
	var reqs []wire.Request
	for i := int64(0); i < n; i++ {
		op := wire.OpInsert
		if i%4 == 3 {
			op = wire.OpDelete // deletes the first key of its group of four
		}
		reqs = append(reqs, wire.Request{Op: op, A: (i &^ 3) + i%4%3})
	}
	wg := writeAll(t, nc, frames(reqs...))
	acked := map[int64]bool{}
	for i, r := range reqs {
		resp, err := dec.Response()
		if err != nil || resp.Tag != wire.TagBool {
			t.Fatalf("reply %d: %+v, %v", i, resp, err)
		}
		if resp.Bool {
			acked[r.A] = r.Op == wire.OpInsert
		}
	}
	wg.Wait()
	if appends := pm.Stats().WALAppends; appends > n/4 {
		t.Fatalf("%d pipelined updates took %d WAL appends, want <= %d", n, appends, n/4)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := pm.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := persist.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for k, in := range acked {
		if in {
			want = append(want, k)
		}
	}
	slices.Sort(want)
	if !slices.Equal(img.Keys, want) {
		t.Fatalf("recovered %d keys, acknowledged %d", len(img.Keys), len(want))
	}
}

// TestSlowOpSampledPerRun: slow-op sampling does not stop coalescing;
// each run is flight-recorded as one slowop event.
func TestSlowOpSampledPerRun(t *testing.T) {
	defer obs.SetEnabled(obs.Enabled())
	obs.SetEnabled(true)
	start := obs.Default.Seq()

	rs := newRecordingStore()
	s := startStore(t, rs, Config{SlowOp: time.Nanosecond})
	c := dialT(t, s)
	const n = 256
	for i := int64(0); i < n; i++ {
		c.Send(wire.Request{Op: wire.OpInsert, A: i}) //nolint:errcheck
	}
	for i := 0; i < n; i++ {
		if resp, err := c.Recv(); err != nil || resp.Tag != wire.TagBool {
			t.Fatalf("reply %d: %+v, %v", i, resp, err)
		}
	}
	b := rs.batches()
	if len(b) == 0 || slices.Max(b) < 2 {
		t.Fatalf("with sampling on, a pipelined burst formed runs %v", b)
	}
	slows := obs.Default.Events(obs.Filter{Type: obs.EventSlowOp, SinceSeq: start})
	if len(slows) == 0 {
		t.Fatal("no slowop events with SlowOp=1ns")
	}
	// One event per served unit: each run, plus each op served alone.
	if want := len(b) + n - sumInts(b); len(slows) != want {
		t.Fatalf("%d slowop events for %d runs covering %d of %d ops, want %d", len(slows), len(b), sumInts(b), n, want)
	}
	for _, e := range slows {
		if wire.Op(e.Kind) != wire.OpInsert || e.A < 0 || e.B < 0 || e.C < 0 || e.A+e.B+e.C < 1 {
			t.Fatalf("slowop event = %+v", e)
		}
	}
}
