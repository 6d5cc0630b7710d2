package main

import (
	"io"
	"net"
	"testing"
	"time"

	"repro/bst"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n      int
		p      float64
		want   int64
		wantOK bool
	}{
		{1000, 0.99, 990, true}, // ranks 991..1000 lie beyond
		{999, 0.99, 990, false}, // only 9 beyond
		{21, 0.50, 11, true},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{0, 0.50, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.wantOK {
			t.Errorf("percentile(1..%d, %v) = %d, %v; want %d, %v", c.n, c.p, got, ok, c.want, c.wantOK)
		}
	}
	r := &result{metrics: map[string]metric{}, notes: map[string]string{}}
	if err := r.setPct("x_p50_us", summarize(seq(999)), 0.50); err != nil {
		t.Errorf("setPct refused a median of 999 samples: %v", err)
	}
	if err := r.setPct("x_p99_us", summarize(seq(999)), 0.99); err == nil {
		t.Error("setPct reported a p99 with only 9 samples beyond it")
	}
	if v := r.metrics["x_p50_us"].Value; v != 0.5 {
		t.Errorf("x_p50_us = %v µs, want 0.5 (sample 500 ns)", v)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestJoinOutsideSubtractsTheStoreSpan(t *testing.T) {
	client := []interval{{100, 200}, {300, 350}, {400, 500}}
	spans := []span{
		{start: 410, dur: 30, kind: spanContains},  // inside the third request
		{start: 120, dur: 50, kind: spanInsert},    // inside the first
		{start: 250, dur: 10, kind: spanContains},  // between requests: ignored
		{start: 340, dur: 20, kind: spanContains},  // overruns the second: not contained
		{start: 460, dur: 20, kind: spanBatch},     // second span inside the third
		{start: 600, dur: 5, kind: spanContains},   // after every request
		{start: 90, dur: 5, kind: spanContains},    // before every request
		{start: 199, dur: 1, kind: spanContains},   // ends exactly at the first's end
		{start: 300, dur: 0, kind: spanContains},   // zero length at the second's start
		{start: 500, dur: 0, kind: spanContains},   // zero length at the third's end
		{start: 350, dur: 100, kind: spanContains}, // starts at the second's end, overruns
	}
	outside, unmatched := joinOutside(client, spans)
	want := []int64{100 - 51, 50 - 0, 100 - 50}
	if unmatched != 0 || len(outside) != len(want) {
		t.Fatalf("joinOutside = %v, %d unmatched; want %v", outside, unmatched, want)
	}
	for i := range want {
		if outside[i] != want[i] {
			t.Errorf("request %d: outside = %d, want %d", i, outside[i], want[i])
		}
	}
	_, unmatched = joinOutside([]interval{{0, 10}}, []span{{start: 20, dur: 1}})
	if unmatched != 1 {
		t.Errorf("a request with no store span inside: unmatched = %d, want 1", unmatched)
	}
}

// sinkServer accepts one connection, reads without replying for hold,
// then closes it: every request sent meanwhile is lost in transport.
func sinkServer(t *testing.T, hold time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		ln.Close()
		if err != nil {
			return
		}
		c.SetReadDeadline(time.Now().Add(hold)) //nolint:errcheck
		io.Copy(io.Discard, c)                  //nolint:errcheck // ends at the deadline
		c.Close()
	}()
	t.Cleanup(func() { <-done })
	return ln.Addr().String()
}

func testSpec() spec {
	return spec{name: "t", keyRange: 1 << 10, mix: workload.Mix{InsertPct: 50, DeletePct: 50}}
}

func TestFailureAccountingCountsTransportErrors(t *testing.T) {
	c, err := dial(sinkServer(t, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.cc.Close()
	r := runClosed([]*client{c}, []*gen{newGen(testSpec(), 1)}, 4, time.Second)
	if r.err == nil {
		t.Fatal("closed loop against a server that never replies reported no error")
	}
	if r.attempted != 4 || r.transport != 4 || r.failed() != 4 || r.completed != 0 {
		t.Errorf("attempted %d, transport %d, failed %d, completed %d; want 4, 4, 4, 0",
			r.attempted, r.transport, r.failed(), r.completed)
	}
}

func TestFailureAccountingCountsDrops(t *testing.T) {
	c, err := dial(sinkServer(t, 300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.cc.Close()
	// 1M ops/s for 100ms overruns the in-flight window of a server that
	// never answers: the overflow is dropped, the rest lost in transport.
	r := runOpen([]*client{c}, []*gen{newGen(testSpec(), 1)}, testSpec(), 1e6, 1, time.Now(), 100*time.Millisecond)
	if r.dropped == 0 || r.transport < openWindow {
		t.Errorf("dropped %d, transport %d; want > 0 and at least %d", r.dropped, r.transport, openWindow)
	}
	if r.failed() != r.attempted || r.completed != 0 {
		t.Errorf("failed %d of %d attempted, %d completed; every op should have failed", r.failed(), r.attempted, r.completed)
	}
}

func TestTracedStoreForwardsBatchBulkAndClock(t *testing.T) {
	m := bst.NewShardedRange(0, 1<<20, 4)
	rec := newRecorder(time.Now(), 1024)
	ts := &tracedStore{store: m, rec: rec, shardOf: m.ShardOf}

	// The server upgrades by type assertion on the Store it is given.
	var st server.Store = ts
	if _, ok := st.(server.BatchStore); !ok {
		t.Fatal("tracedStore hides ApplyBatch")
	}
	if _, ok := st.(server.BulkLoader); !ok {
		t.Fatal("tracedStore hides BulkLoad")
	}
	clock, ok := st.(interface{ ClockNow() (uint64, bool) })
	if !ok {
		t.Fatal("tracedStore hides ClockNow")
	}
	got, ok1 := clock.ClockNow()
	want, ok2 := m.ClockNow()
	if got != want || ok1 != ok2 {
		t.Errorf("ClockNow = %d, %v; the map says %d, %v", got, ok1, want, ok2)
	}

	srv, err := server.Start(server.Config{Addr: "127.0.0.1:0", Store: ts})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(t.Context()) //nolint:errcheck
	c, err := wire.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec.on.Store(true)
	if added, err := c.BulkLoad([]int64{1, 2, 3, 4, 5}); err != nil || added != 5 {
		t.Fatalf("BulkLoad = %d, %v", added, err)
	}
	res, err := c.MBatch([]wire.BatchEntry{{Op: wire.OpInsert, Key: 9}, {Op: wire.OpDelete, Key: 1}, {Op: wire.OpContains, Key: 2}})
	if err != nil || len(res) != 3 || !res[0] || !res[1] || !res[2] {
		t.Fatalf("MBatch = %v, %v", res, err)
	}
	if err := srv.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	spans, _ := rec.recorded()
	var kinds [numSpanKinds]int
	for _, s := range spans {
		kinds[s.kind]++
	}
	// A per-op fallback would show as Insert/Delete/Contains spans.
	if kinds[spanBatch] != 1 || len(spans) != 1 {
		t.Errorf("spans by kind %v; want exactly one batch span", kinds)
	}
	if m.Len() != 5 {
		t.Errorf("map holds %d keys after load and batch, want 5", m.Len())
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	slower := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	noisy := []float64{50, 150, 60, 140, 100, 70, 130, 90, 110, 80}
	if v := judge(base, faster, true, 0.1); !v.gain || v.status != "ok" || v.wins != 10 {
		t.Errorf("faster: %+v", v)
	}
	if v := judge(base, slower, true, 0.1); v.gain || v.status != "REGRESSION" {
		t.Errorf("slower: %+v", v)
	}
	if v := judge(base, slower, false, 0.1); !v.gain || v.status != "ok" {
		t.Errorf("higher is better: %+v", v)
	}
	if v := judge(base, noisy, true, 0.1); v.status != "unresolved" {
		t.Errorf("noisy: %+v", v)
	}
}
