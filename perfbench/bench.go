package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"repro/bst"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
)

// setupReps is how many times a run sets the system up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 5

// pipelineDepth is the closed loop's in-flight requests per connection.
const pipelineDepth = 16

// conns is the number of driver connections in the closed and open loops.
const conns = 2

// rounds is how many times a run cycles through its phases.
const rounds = 20

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	attempted, failed int64
	metrics           map[string]metric
	notes             map[string]string
	info              []string // printed lines that are not metrics
	violations        []string
}

func (r *result) set(name string, v float64, unit, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.notes[name] = note
}

// setPct reports the p-quantile of t in µs, noting the sample count. A
// quantile needs minBeyond samples beyond it; without them the run fails
// rather than report a tail it did not observe.
func (r *result) setPct(name string, t timing, p float64) error {
	v, ok := t.at(p)
	if !ok {
		return fmt.Errorf("%s: %d samples leave fewer than %d beyond the %v quantile", name, t.n(), minBeyond, p)
	}
	r.set(name, v, "us", fmt.Sprintf("n=%d", t.n()))
	return nil
}

// describe adds a printed-only line with t's median and p99 (or, with
// too few samples for a p99, its maximum).
func (r *result) describe(name string, t timing) {
	p50, _ := t.at(0.50)
	tail, ok := t.at(0.99)
	label := "p99"
	if !ok {
		tail, label = t.max(), "max"
	}
	r.info = append(r.info, fmt.Sprintf("%-34s p50 %.1f us, %s %.1f us, n=%d", name, p50, label, tail, t.n()))
}

// system is one set-up server and the store behind it.
type system struct {
	m   *bst.ShardedMap
	pm  *persist.Map // durable-write only
	dir string
	srv *server.Server
}

// setUp starts the server on loopback in this process and bulk-loads
// keys through MLOAD; the returned duration covers server start, persist
// open and prefill.
func setUp(w spec, keys []int64, rec *recorder, dir string) (*system, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	s := &system{m: bst.NewShardedRange(0, w.keyRange-1, shards), dir: dir}
	var st store = s.m
	if w.durable {
		pm, _, err := persist.Open(persist.Config{Dir: dir}, s.m)
		if err != nil {
			return nil, 0, fmt.Errorf("persist open: %w", err)
		}
		s.pm, st = pm, pm
	}
	if rec != nil {
		st = &tracedStore{store: st, rec: rec, shardOf: s.m.ShardOf}
	}
	srv, err := server.Start(server.Config{Addr: "127.0.0.1:0", Store: st})
	if err != nil {
		s.teardown() //nolint:errcheck // already failing
		return nil, 0, err
	}
	s.srv = srv
	c, err := wire.Dial(srv.Addr().String())
	if err != nil {
		s.teardown() //nolint:errcheck
		return nil, 0, err
	}
	added, err := c.BulkLoad(keys)
	c.Close()
	took := time.Since(start)
	if err == nil && added != int64(len(keys)) {
		err = fmt.Errorf("prefill added %d of %d keys", added, len(keys))
	}
	if err != nil {
		s.teardown() //nolint:errcheck
		return nil, 0, err
	}
	return s, took, nil
}

func (s *system) shutdown() error {
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	s.srv = nil
	return err
}

// teardown stops the server, closes the WAL and removes persist files.
func (s *system) teardown() error {
	err := s.shutdown()
	if s.pm != nil {
		err = errors.Join(err, s.pm.Close())
	}
	return errors.Join(err, os.RemoveAll(s.dir))
}

// prefillKeys draws exactly w.live distinct keys from [0, w.keyRange),
// ascending, by selection sampling.
func prefillKeys(w spec, seed uint64) []int64 {
	rng := workload.NewRNG(seed ^ 0x5eed)
	keys := make([]int64, 0, w.live)
	need := int64(w.live)
	for k := int64(0); k < w.keyRange && need > 0; k++ {
		if rng.Intn(w.keyRange-k) < need {
			keys = append(keys, k)
			need--
		}
	}
	return keys
}

// ticker calls fn every interval on its own goroutine and times each
// call, until halt.
type ticker struct {
	stop, done chan struct{}
	took       []int64 // ns per call
	err        error
}

func startTicker(every time.Duration, fn func() error) *ticker {
	t := &ticker{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(t.done)
		tk := time.NewTicker(every)
		defer tk.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tk.C:
				s := time.Now()
				if err := fn(); err != nil {
					t.err = err
					return
				}
				t.took = append(t.took, int64(time.Since(s)))
			}
		}
	}()
	return t
}

func (t *ticker) halt() {
	close(t.stop)
	<-t.done
}

// walBytes measures what the WAL appends on disk: the growth of every
// segment file over its size when tracking began. Segments are sized
// just before each checkpoint, which deletes the ones it covers.
type walBytes struct {
	dir       string
	base, max map[string]int64
}

func newWALBytes(dir string) (*walBytes, error) {
	w := &walBytes{dir: dir, base: map[string]int64{}, max: map[string]int64{}}
	if err := w.observe(); err != nil {
		return nil, err
	}
	for k, v := range w.max {
		w.base[k] = v
	}
	return w, nil
}

func (w *walBytes) observe() error {
	segs, err := filepath.Glob(filepath.Join(w.dir, "wal-*.log"))
	if err != nil {
		return err
	}
	for _, p := range segs {
		fi, err := os.Stat(p)
		if errors.Is(err, os.ErrNotExist) {
			continue // dropped by a checkpoint since the glob
		}
		if err != nil {
			return err
		}
		if fi.Size() > w.max[p] {
			w.max[p] = fi.Size()
		}
	}
	return nil
}

func (w *walBytes) total() int64 {
	var n int64
	for k, v := range w.max {
		n += v - w.base[k]
	}
	return n
}

// usage is a process-wide resource reading.
type usage struct {
	at     time.Time
	cpu    time.Duration
	allocs uint64
	gcs    uint64
	pauses *metrics.Float64Histogram
}

var usageSamples = []string{"/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles", "/sched/pauses/total/gc:seconds"}

func readUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	s := make([]metrics.Sample, len(usageSamples))
	for i, n := range usageSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return usage{
		at:     time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: s[0].Value.Uint64(),
		gcs:    s[1].Value.Uint64(),
		pauses: s[2].Value.Float64Histogram(),
	}
}

// maxPauseSince returns the upper bound, in µs, of the highest GC pause
// bucket that gained counts between u0 and u1.
func maxPauseSince(u0, u1 usage) float64 {
	h0, h1 := u0.pauses, u1.pauses
	for i := len(h1.Counts) - 1; i >= 0; i-- {
		if h1.Counts[i] > h0.Counts[i] {
			hi := h1.Buckets[i+1]
			if hi > 1e9 { // the last bucket is open-ended
				hi = h1.Buckets[i]
			}
			return hi * 1e6
		}
	}
	return 0
}

// heapLive collects twice, so objects parked in sync.Pools (the tree's
// node recycling pool among them) are released before reading.
// cost is process-wide usage accumulated over the untraced closed phases.
type cost struct {
	secs           float64
	cpu            time.Duration
	allocs, gcs    uint64
	appends, syncs uint64 // WAL append groups and fsyncs
}

func (c *cost) add(u0, u1 usage, p0, p1 persist.Stats) {
	c.secs += u1.at.Sub(u0.at).Seconds()
	c.cpu += u1.cpu - u0.cpu
	c.allocs += u1.allocs - u0.allocs
	c.gcs += u1.gcs - u0.gcs
	c.appends += p1.WALAppends - p0.WALAppends
	c.syncs += p1.WALSyncs - p0.WALSyncs
}

func heapLive() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// phaseSeed derives a distinct workload stream per phase and connection.
func phaseSeed(seed uint64, ph phaseID, conn int) uint64 {
	return seed*1_000_003 + uint64(ph)*64 + uint64(conn)
}

func runWorkload(w spec, seed uint64, seconds int, traced bool, scratch string) (*result, error) {
	epoch := time.Now()
	res := &result{metrics: map[string]metric{}, notes: map[string]string{}}
	var rec *recorder
	if traced {
		rec = newRecorder(epoch, spanCapacity*seconds)
	}
	dir, err := filepath.Abs(filepath.Join(scratch, fmt.Sprintf("perfbench-%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}

	keys := prefillKeys(w, seed)
	var sys *system
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if sys != nil {
			if err := sys.teardown(); err != nil {
				return nil, err
			}
			sys = nil
			runtime.GC()
		}
		s, took, err := setUp(w, keys, rec, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		sys = s
		setups = append(setups, took.Seconds())
	}
	defer sys.teardown() //nolint:errcheck // the checks below close what matters
	keys = nil
	runtime.GC()
	if !traced {
		res.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", setupReps))
	}

	cs := make([]*client, conns)
	for i := range cs {
		if cs[i], err = dial(sys.srv.Addr().String()); err != nil {
			return nil, err
		}
		defer cs[i].cc.Close()
	}
	gens := func(ph phaseID) []*gen {
		gs := make([]*gen, conns)
		for i := range gs {
			gs[i] = newGen(w, phaseSeed(seed, ph, i))
		}
		return gs
	}

	var wal *walBytes
	var ckpt *ticker
	if w.durable {
		if wal, err = newWALBytes(dir); err != nil {
			return nil, err
		}
		ckpt = startTicker(w.checkpointEvery, func() error {
			if err := wal.observe(); err != nil {
				return err
			}
			_, err := sys.pm.Checkpoint()
			return err
		})
	}
	compact := startTicker(w.compactEvery, func() error { sys.m.Compact(); return nil })
	stats0, uStart := sys.m.Stats(), readUsage()

	// Phases, interleaved in rounds so that slow drift and transient
	// interference (a Compact pass, a GC cycle, a noisy neighbour) are
	// shared by every phase instead of landing on one. The traced run
	// splits the closed-loop share into an untraced half, which gives the
	// overhead ratio and the process-wide counters, and a traced half.
	slice := time.Duration(seconds) * time.Second / (100 * rounds)
	rttShare, closedShare := 25, 35
	if traced {
		rttShare, closedShare = 20, 20
	}
	enter := func(ph phaseID, on bool) {
		if rec != nil {
			rec.phase.Store(uint32(ph))
			rec.on.Store(on)
		}
	}
	rttGen, untracedGens, closedGens, openGens := gens(phaseRTT)[0], gens(phaseClosedUntraced), gens(phaseClosed), gens(phaseOpen)
	rtt, untraced, closed, open := &phaseResult{}, &phaseResult{}, &phaseResult{}, &phaseResult{}
	var usage cost
	for round := 0; round < rounds; round++ {
		enter(phaseRTT, true)
		rtt.addRound(runRTT(cs[0], rttGen, epoch, slice*time.Duration(rttShare)))

		enter(phaseClosedUntraced, false)
		u0, p0 := readUsage(), persistStats(sys)
		untraced.addRound(runClosed(cs, untracedGens, pipelineDepth, slice*time.Duration(closedShare)))
		usage.add(u0, readUsage(), p0, persistStats(sys))
		if traced {
			enter(phaseClosed, true)
			closed.addRound(runClosed(cs, closedGens, pipelineDepth, slice*time.Duration(closedShare)))
		}

		enter(phaseOpen, true)
		open.addRound(runOpen(cs, openGens, w, w.openRate, phaseSeed(seed, phaseOpen, conns+round), epoch, slice*40))
	}
	enter(phaseSetup, false)
	if !traced {
		closed, untraced = untraced, nil
	}
	var all tally
	var bytes int64
	for _, r := range []*phaseResult{rtt, untraced, closed, open} {
		if r != nil {
			all.add(r.tally)
			bytes += r.bytes
		}
	}
	uEnd := readUsage()

	compact.halt()
	if ckpt != nil {
		ckpt.halt()
	}
	for _, e := range []error{rtt.err, closed.err, open.err, compact.err} {
		if e != nil {
			res.violations = append(res.violations, fmt.Sprintf("load: %v", e))
		}
	}
	if untraced != nil && untraced.err != nil {
		res.violations = append(res.violations, fmt.Sprintf("load: %v", untraced.err))
	}
	if ckpt != nil && ckpt.err != nil {
		res.violations = append(res.violations, fmt.Sprintf("checkpoint: %v", ckpt.err))
	}
	res.attempted, res.failed = all.attempted, all.failed()
	if all.errReply > 0 {
		res.violations = append(res.violations, fmt.Sprintf("%d ops answered with an error reply", all.errReply))
	}
	if all.badScans > 0 {
		res.violations = append(res.violations, fmt.Sprintf("%d SCAN replies out of order, outside their interval or miscounted", all.badScans))
	}

	// Output checks on the quiescent store.
	for _, c := range cs {
		c.cc.Close()
	}
	res.violations = append(res.violations, checkWire(sys)...)
	if err := sys.shutdown(); err != nil {
		res.violations = append(res.violations, fmt.Sprintf("shutdown: %v", err))
	}
	if err := sys.m.CheckInvariants(); err != nil {
		res.violations = append(res.violations, fmt.Sprintf("CheckInvariants: %v", err))
	}
	statsEnd := sys.m.Stats()
	sys.m.Compact()
	live := sys.m.Len()

	if traced {
		spans, overflow := rec.recorded()
		if overflow > 0 {
			return nil, fmt.Errorf("span buffer overflowed by %d spans; raise spanCapacity", overflow)
		}
		l := layerInputs{
			w: w, rtt: rtt, untraced: untraced, closed: closed, open: open,
			spans: spans, rec: rec, all: all, bytes: bytes,
			stats0: stats0, statsEnd: statsEnd, uStart: uStart, uEnd: uEnd, usage: usage,
			compactNs: compact.took, versions: sys.m.VersionGraphSize(), live: live,
		}
		if ckpt != nil {
			l.checkpointNs = ckpt.took
		}
		if err := l.report(res); err != nil {
			return nil, err
		}
	} else {
		res.set("throughput_ops_s", closed.throughput(), "ops/s",
			fmt.Sprintf("median of %d windows of %v, n=%d ops", len(closed.perWin), window, closed.completed))
		rttT, openT := summarize(rtt.point), summarize(open.point)
		if err := res.setPct("rtt_p90_us", rttT, 0.90); err != nil {
			return nil, err
		}
		res.describe("rtt", rttT)
		res.describe("open", openT)
		rtt, closed, open = nil, nil, nil
		res.set("heap_bytes_per_key", heapLive()/float64(live), "B", fmt.Sprintf("live keys=%d", live))
	}

	if w.durable {
		res.violations = append(res.violations, checkRecovery(sys, wal)...)
		if traced {
			if wal.total() <= 0 || all.effective == 0 {
				return nil, errors.New("no WAL growth measured")
			}
			res.set("persist.wal_bytes_per_update", float64(wal.total())/float64(all.effective), "B",
				fmt.Sprintf("n=%d effective updates", all.effective))
		}
	}
	return res, nil
}

func persistStats(s *system) persist.Stats {
	if s.pm == nil {
		return persist.Stats{}
	}
	return s.pm.Stats()
}

// checkWire compares wire LEN with the key count of a full wire SCAN,
// which must also ascend strictly, and with the store's own Len.
func checkWire(s *system) []string {
	c, err := wire.Dial(s.srv.Addr().String())
	if err != nil {
		return []string{fmt.Sprintf("dial for checks: %v", err)}
	}
	defer c.Close()
	n, err := c.Len()
	if err != nil {
		return []string{fmt.Sprintf("LEN: %v", err)}
	}
	var seen, prev int64
	ordered := true
	total, err := c.Scan(bst.MinKey, bst.MaxKey, func(k int64) bool {
		ordered = ordered && (seen == 0 || k > prev)
		prev = k
		seen++
		return true
	})
	if err != nil {
		return []string{fmt.Sprintf("full SCAN: %v", err)}
	}
	var v []string
	if !ordered {
		v = append(v, "full SCAN not strictly ascending")
	}
	if seen != total || seen != n || int(n) != s.m.Len() {
		v = append(v, fmt.Sprintf("LEN %d, full SCAN delivered %d of %d declared keys, store Len %d", n, seen, total, s.m.Len()))
	}
	return v
}

// checkRecovery closes the WAL and requires persist.Recover to rebuild
// exactly the live key set: every acknowledged update survived.
func checkRecovery(s *system, wal *walBytes) []string {
	want := s.m.Keys()
	if err := s.pm.Close(); err != nil {
		return []string{fmt.Sprintf("persist Close: %v", err)}
	}
	if err := wal.observe(); err != nil {
		return []string{fmt.Sprintf("sizing WAL: %v", err)}
	}
	img, err := persist.Recover(s.dir)
	if err != nil {
		return []string{fmt.Sprintf("persist.Recover: %v", err)}
	}
	if !slices.Equal(img.Keys, want) {
		return []string{fmt.Sprintf("recovered %d keys, live set has %d (or they differ)", len(img.Keys), len(want))}
	}
	return nil
}
