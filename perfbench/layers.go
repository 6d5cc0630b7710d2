package main

import (
	"fmt"
	"runtime"

	"repro/bst"
)

// layerInputs is what the traced run hands to the per-layer report.
type layerInputs struct {
	w                       spec
	rtt, untraced, closed   *phaseResult
	open                    *phaseResult
	spans                   []span
	rec                     *recorder
	all                     tally // every measured phase
	bytes                   int64 // client socket bytes over every measured phase
	stats0, statsEnd        bst.Stats
	uStart, uEnd            usage // start and end of load
	usage                   cost  // untraced closed phases
	compactNs, checkpointNs []int64
	versions, live          int
}

// report sets every per-layer metric; one whose op is absent on the
// workload reads 0.
func (l *layerInputs) report(res *result) error {
	w := l.w
	// Store spans by kind, over every traced phase.
	var byKind [numSpanKinds][]int64
	var rttSpans []span
	var closedBusy int64
	for _, s := range l.spans {
		switch s.phase {
		case phaseRTT:
			rttSpans = append(rttSpans, s)
		case phaseClosed:
			closedBusy += int64(s.dur)
		}
		byKind[s.kind] = append(byKind[s.kind], int64(s.dur))
	}

	lat := summarize(l.open.late)
	if err := res.setPct("driver.late_p99_us", lat, 0.99); err != nil {
		return err
	}
	res.describe("driver.late", lat)
	// End-to-end percentiles too erratic across runs on a shared 2-vCPU
	// box to gate, reported here with their sample counts.
	rttT, openT := summarize(l.rtt.point), summarize(l.open.point)
	for _, p := range []struct {
		name string
		t    timing
		p    float64
	}{
		{"driver.rtt_p50_us", rttT, 0.50},
		{"driver.rtt_p99_us", rttT, 0.99},
		{"driver.open_p50_us", openT, 0.50},
		{"driver.open_p99_us", openT, 0.99},
	} {
		if err := res.setPct(p.name, p.t, p.p); err != nil {
			return err
		}
	}
	if err := l.optionalTiming(res, "driver.scan", summarize(l.open.scan), w.mix.ScanPct > 0); err != nil {
		return err
	}
	res.set("wire.bytes_per_op", float64(l.bytes)/float64(l.all.completed), "B",
		fmt.Sprintf("n=%d ops", l.all.completed))

	outside, unmatched := joinOutside(l.rtt.client, rttSpans)
	if unmatched > 0 {
		return fmt.Errorf("rtt span join: %d requests contained no store span", unmatched)
	}
	if err := res.setPct("server.outside_store_p50_us", summarize(outside), 0.50); err != nil {
		return err
	}
	res.set("server.store_busy_frac", float64(closedBusy)/(float64(l.closed.elapsed)*float64(runtime.GOMAXPROCS(0))), "ratio",
		fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)))

	// On durable-write the decorator wraps persist.Map, so its update
	// spans are persist spans and the bst rows stay 0.
	layer := "bst"
	if w.durable {
		layer = "persist"
	}
	reads := w.mix.FindPct() > 0
	updates := w.mix.InsertPct > 0
	for _, k := range []struct {
		name    string
		kind    spanKind
		present bool
	}{
		{"bst.contains", spanContains, reads && w.batch == 0},
		{layer + ".insert", spanInsert, updates && w.batch == 0},
		{layer + ".delete", spanDelete, updates && w.batch == 0},
		{"bst.batch", spanBatch, w.batch > 0},
		{"bst.scan", spanScan, w.mix.ScanPct > 0},
	} {
		if err := l.optionalTiming(res, k.name, summarize(byKind[k.kind]), k.present); err != nil {
			return err
		}
	}
	for _, n := range []string{"bst.insert", "bst.delete", "persist.insert", "persist.delete"} {
		if _, ok := res.metrics[n+"_p50_us"]; !ok {
			res.set(n+"_p50_us", 0, "us", "absent on this workload")
			res.set(n+"_p99_us", 0, "us", "absent on this workload")
		}
	}

	perScan := 0.0
	if n := l.rec.scans.Load(); n > 0 {
		perScan = float64(l.rec.scanShards.Load()) / float64(n)
	}
	res.set("shard.shards_per_scan", perScan, "count", fmt.Sprintf("n=%d scans", l.rec.scans.Load()))

	// Tree counters over every measured phase, per useful op or per
	// effective update.
	d := func(f func(bst.Stats) uint64) float64 { return float64(f(l.statsEnd) - f(l.stats0)) }
	ops := float64(l.all.completed)
	upd := float64(l.all.effective)
	opsNote := fmt.Sprintf("n=%d ops", l.all.completed)
	updNote := fmt.Sprintf("n=%d effective updates", l.all.effective)
	res.set("core.update_retries_per_op", d(func(s bst.Stats) uint64 { return s.RetriesInsert + s.RetriesDelete })/ops, "count", opsNote)
	res.set("core.helps_per_op", d(func(s bst.Stats) uint64 { return s.Helps })/ops, "count", opsNote)
	res.set("core.handshake_aborts_per_op", d(func(s bst.Stats) uint64 { return s.HandshakeAborts })/ops, "count", opsNote)
	res.set("core.horizon_retries_per_op", d(func(s bst.Stats) uint64 { return s.RetriesHorizon })/ops, "count", opsNote)
	res.set("core.pruned_links_per_update", d(func(s bst.Stats) uint64 { return s.PrunedLinks })/upd, "count", updNote)
	res.set("core.pool_hits_per_update", d(func(s bst.Stats) uint64 { return s.PoolNodeHits + s.PoolInfoHits })/upd, "count", updNote)
	res.set("core.version_nodes_per_key", float64(l.versions)/float64(l.live), "count",
		fmt.Sprintf("after a final Compact, live keys=%d", l.live))
	l.callTimes(res, "core.compact", l.compactNs, true)

	// Durability and process-wide usage, over the untraced closed phases
	// (capacity), the whole process including the driver.
	u := l.usage
	if w.durable {
		if u.syncs == 0 {
			return fmt.Errorf("no WAL syncs in the closed phase")
		}
		res.set("persist.group_size", float64(u.appends)/float64(u.syncs), "count", fmt.Sprintf("n=%d syncs", u.syncs))
		res.set("persist.syncs_per_s", float64(u.syncs)/u.secs, "1/s", "untraced closed phase")
	} else {
		res.set("persist.group_size", 0, "count", "no WAL on this workload")
		res.set("persist.syncs_per_s", 0, "1/s", "no WAL on this workload")
		res.set("persist.wal_bytes_per_update", 0, "B", "no WAL on this workload")
	}
	l.callTimes(res, "persist.checkpoint", l.checkpointNs, w.durable)

	uops := float64(l.untraced.completed)
	un := fmt.Sprintf("n=%d ops, untraced closed phase", l.untraced.completed)
	res.set("runtime.cpu_us_per_op", float64(u.cpu)/1e3/uops, "us", un)
	res.set("runtime.allocs_per_op", float64(u.allocs)/uops, "count", un)
	res.set("runtime.gc_cycles_per_s", float64(u.gcs)/u.secs, "1/s", un)
	res.set("runtime.gc_pause_max_us", maxPauseSince(l.uStart, l.uEnd), "us", "bucket upper bound, every measured phase")

	untracedTput, tracedTput := l.untraced.throughput(), l.closed.throughput()
	res.set("trace.overhead", tracedTput/untracedTput, "ratio",
		fmt.Sprintf("traced %.0f / untraced %.0f ops/s", tracedTput, untracedTput))
	return nil
}

// optionalTiming reports name_p50_us and name_p99_us when the op is part
// of the workload, and 0 for both when it is not.
func (l *layerInputs) optionalTiming(res *result, name string, t timing, present bool) error {
	if !present {
		res.set(name+"_p50_us", 0, "us", "absent on this workload")
		res.set(name+"_p99_us", 0, "us", "absent on this workload")
		return nil
	}
	if err := res.setPct(name+"_p50_us", t, 0.50); err != nil {
		return err
	}
	return res.setPct(name+"_p99_us", t, 0.99)
}

// callTimes reports the benchmark's own timed Compact or Checkpoint
// calls in ms: the median and, since a run makes far fewer than the
// 1000 calls a p99 needs, the maximum.
func (l *layerInputs) callTimes(res *result, name string, ns []int64, present bool) {
	t := summarize(ns)
	if !present || t.n() == 0 {
		res.set(name+"_ms_p50", 0, "ms", "no calls")
		res.set(name+"_ms_max", 0, "ms", "no calls")
		return
	}
	note := fmt.Sprintf("n=%d calls", t.n())
	// A call median is reported from fewer than the 21 samples a median
	// needs elsewhere; the count says how many.
	p50, _ := t.at(0.50)
	res.set(name+"_ms_p50", p50/1e3, "ms", note)
	res.set(name+"_ms_max", t.max()/1e3, "ms", note)
}
