package main

import (
	"math"
	"sort"
	"sync/atomic"
	"time"

	"repro/bst"
	"repro/internal/persist"
	"repro/internal/server"
)

// store is what the benchmark hands to server.Start: the server's Store
// plus the optional upgrades it detects by type assertion (MBATCH through
// ApplyBatch, MLOAD through BulkLoad, event stamps through ClockNow).
// tracedStore must keep all of them, or the server would silently fall
// back to per-op loops and the traced run would measure another program.
type store interface {
	server.Store
	server.BatchStore
	server.BulkLoader
	ClockNow() (uint64, bool)
}

var (
	_ store = (*bst.ShardedMap)(nil)
	_ store = (*persist.Map)(nil)
	_ store = (*tracedStore)(nil)
)

// spanKind names the store call a span covers.
type spanKind uint8

const (
	spanContains spanKind = iota
	spanInsert
	spanDelete
	spanBatch
	spanScan
	numSpanKinds
)

// phaseID tags spans with the benchmark phase they ran in.
type phaseID uint8

const (
	phaseSetup phaseID = iota
	phaseRTT
	phaseClosedUntraced
	phaseClosed
	phaseOpen
)

// span is one timed call into the store. Times are nanoseconds since the
// recorder's epoch, the same clock the driver stamps requests with, so a
// request's client span and its store span can be joined by containment.
type span struct {
	start int64
	dur   uint32
	kind  spanKind
	phase phaseID
}

func (s span) end() int64 { return s.start + int64(s.dur) }

// recorder keeps spans in a preallocated buffer; nothing is aggregated
// or written while the benchmark runs. It starts switched off, so set-up
// (the MLOAD prefill) is not traced. Slots are claimed with one atomic
// add, so the two server connections record without a lock.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	phase atomic.Uint32
	next  atomic.Int64
	spans []span

	scans      atomic.Int64 // traced RangeScanFunc calls
	scanShards atomic.Int64 // shards those scans covered, via ShardOf
}

// spanCapacity is the span buffer size per measured second: above the
// request rate of every workload's traced phases on a 2-vCPU box. A
// run that overflows it fails instead of reporting a biased breakdown.
const spanCapacity = 200_000

func newRecorder(epoch time.Time, capacity int) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(k spanKind, start int64) {
	d := min(r.now()-start, math.MaxUint32)
	if i := r.next.Add(1) - 1; i < int64(len(r.spans)) {
		r.spans[i] = span{start: start, dur: uint32(d), kind: k, phase: phaseID(r.phase.Load())}
	}
}

// recorded returns the spans kept and how many did not fit. Call only
// after every recording goroutine has stopped (server shut down).
func (r *recorder) recorded() (spans []span, overflow int64) {
	n := r.next.Load()
	if n > int64(len(r.spans)) {
		return r.spans, n - int64(len(r.spans))
	}
	return r.spans[:n], 0
}

// tracedStore is the timing decorator of the traced run: it records a
// span around every point, batch and scan call the server makes into the
// store, and forwards everything else (BulkLoad, ClockNow, ...) untouched
// through the embedded store. While rec.on is false it only
// forwards.
type tracedStore struct {
	store
	rec     *recorder
	shardOf func(k int64) int
}

func (t *tracedStore) Contains(k int64) bool {
	if !t.rec.on.Load() {
		return t.store.Contains(k)
	}
	s := t.rec.now()
	ok := t.store.Contains(k)
	t.rec.add(spanContains, s)
	return ok
}

func (t *tracedStore) Insert(k int64) bool {
	if !t.rec.on.Load() {
		return t.store.Insert(k)
	}
	s := t.rec.now()
	ok := t.store.Insert(k)
	t.rec.add(spanInsert, s)
	return ok
}

func (t *tracedStore) Delete(k int64) bool {
	if !t.rec.on.Load() {
		return t.store.Delete(k)
	}
	s := t.rec.now()
	ok := t.store.Delete(k)
	t.rec.add(spanDelete, s)
	return ok
}

func (t *tracedStore) ApplyBatch(ops []bst.BatchOp, res []bool) {
	if !t.rec.on.Load() {
		t.store.ApplyBatch(ops, res)
		return
	}
	s := t.rec.now()
	t.store.ApplyBatch(ops, res)
	t.rec.add(spanBatch, s)
}

// RangeScanFunc times the whole scan, including the reply frames the
// server writes from inside visit: the scan is one atomic cut, so its
// frame writes cannot be separated from the traversal.
func (t *tracedStore) RangeScanFunc(a, b int64, visit func(k int64) bool) {
	if !t.rec.on.Load() {
		t.store.RangeScanFunc(a, b, visit)
		return
	}
	t.rec.scans.Add(1)
	t.rec.scanShards.Add(int64(t.shardOf(b) - t.shardOf(a) + 1))
	s := t.rec.now()
	t.store.RangeScanFunc(a, b, visit)
	t.rec.add(spanScan, s)
}

// interval is one client-side request span: send to last reply frame.
type interval struct{ start, end int64 }

// joinOutside pairs each client request span with the store spans that
// lie wholly inside it and returns client duration minus store time, in
// ns, per request that contained at least one store span. It assumes
// requests were issued one at a time (the rtt phase), so containment
// identifies a request's store span. Both inputs are sorted in place.
func joinOutside(client []interval, spans []span) (outside []int64, unmatched int) {
	sort.Slice(client, func(i, j int) bool { return client[i].start < client[j].start })
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	j := 0
	for _, c := range client {
		for j < len(spans) && spans[j].start < c.start {
			j++
		}
		var inside int64
		found := false
		for ; j < len(spans) && spans[j].start <= c.end; j++ {
			if spans[j].end() <= c.end {
				inside += int64(spans[j].dur)
				found = true
			}
		}
		if !found {
			unmatched++
			continue
		}
		outside = append(outside, c.end-c.start-inside)
	}
	return outside, unmatched
}
