package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime/metrics"
	"time"

	"repro/bst"
	"repro/internal/obs"
	"repro/internal/wire"
)

// MetricsProm renders the server's state in the Prometheus text
// exposition format (version 0.0.4). Every family is prefixed
// bstserver_. Latency histograms are exported as cumulative le-buckets
// in seconds, straight from stats.Histogram's power-of-two rows —
// bucket boundaries are data-independent, so successive scrapes of the
// same family are always mergeable. Pool hits/puts are exported as raw
// counters (compute rates with rate(); the store does not track misses
// separately, so no precomputed ratio is offered that rate() can't do
// better). Per-shard load is additionally smoothed exporter-side into
// bstserver_shard_load_ewma: the scrape-to-scrape delta of the routed-op
// counter folded as (prev+delta)/2, reset whenever the routing table's
// generation changes (migrations reset the per-shard counters, so a
// delta across generations would go negative).
func (s *Server) MetricsProm() []byte {
	m := s.Metrics()
	shards, st, splits, merges, ps, clock := s.storeInfo()

	var b bytes.Buffer
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, promFloat(v))
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %s\n", name, help, name, name, promFloat(v))
	}

	gauge("bstserver_uptime_seconds", "Seconds since the server started.", m.UptimeSec)
	gauge("bstserver_conns_active", "Currently open client connections.", float64(m.ConnsActive))
	counter("bstserver_conns_total", "Client connections accepted since start.", float64(m.ConnsTotal))
	counter("bstserver_ops_total", "Wire operations served since start.", float64(m.OpsTotal))
	draining := 0.0
	if m.Draining {
		draining = 1
	}
	gauge("bstserver_draining", "1 once graceful drain has begun, else 0.", draining)

	s.promOpLatencies(&b)

	counter("bstserver_events_total_all", "Flight-recorder events emitted since start, all types.", float64(sumCounts(m.Events)))
	fmt.Fprintf(&b, "# HELP bstserver_events_total Flight-recorder events emitted since start, by type.\n# TYPE bstserver_events_total counter\n")
	for _, t := range eventTypeOrder() {
		fmt.Fprintf(&b, "bstserver_events_total{type=%q} %d\n", t.String(), m.Events[t.String()].Count)
	}
	fmt.Fprintf(&b, "# HELP bstserver_event_last_phase Phase stamp of the most recent event, by type (0 if none).\n# TYPE bstserver_event_last_phase gauge\n")
	for _, t := range eventTypeOrder() {
		fmt.Fprintf(&b, "bstserver_event_last_phase{type=%q} %d\n", t.String(), m.Events[t.String()].LastPhase)
	}

	if clock > 0 {
		gauge("bstserver_clock_phase", "Current phase of the store's shared clock.", float64(clock))
	}
	if st != nil {
		counter("bstserver_store_scans_total", "Range scans and snapshots taken (phases opened).", float64(st.Scans))
		counter("bstserver_store_retries_total", "Operation restarts (insert+delete+find+horizon).",
			float64(st.RetriesInsert+st.RetriesDelete+st.RetriesFind+st.RetriesHorizon))
		counter("bstserver_store_helps_total", "Times one operation helped another complete.", float64(st.Helps))
		counter("bstserver_store_handshake_aborts_total", "Update attempts aborted by the handshaking check.", float64(st.HandshakeAborts))
		counter("bstserver_store_compactions_total", "Compact passes completed.", float64(st.Compactions))
		counter("bstserver_store_pruned_links_total", "Version-chain links cut by compaction.", float64(st.PrunedLinks))
	}
	if shards != nil {
		gauge("bstserver_shards", "Current shard count.", float64(len(shards)))
		fmt.Fprintf(&b, "# HELP bstserver_migrations_total Completed shard migrations, by kind.\n# TYPE bstserver_migrations_total counter\n")
		fmt.Fprintf(&b, "bstserver_migrations_total{kind=\"split\"} %d\nbstserver_migrations_total{kind=\"merge\"} %d\n", splits, merges)
		s.promShards(&b, shards)
	}
	if ps != nil {
		counter("bstserver_checkpoints_total", "Checkpoints completed.", float64(ps.Checkpoints))
		counter("bstserver_checkpoint_errors_total", "Background checkpoints that failed.", float64(ps.CheckpointErrs))
		gauge("bstserver_checkpoint_last_cut", "Cut phase of the newest checkpoint (0 if none).", float64(ps.LastCut))
		age := -1.0
		if ps.LastCheckpointNS > 0 {
			age = time.Since(time.Unix(0, ps.LastCheckpointNS)).Seconds()
		}
		gauge("bstserver_checkpoint_age_seconds", "Seconds since the newest checkpoint committed (-1 if none).", age)
		counter("bstserver_wal_appends_total", "WAL record groups appended.", float64(ps.WALAppends))
		counter("bstserver_wal_syncs_total", "WAL fsyncs performed.", float64(ps.WALSyncs))
		gauge("bstserver_wal_segment", "Current WAL segment number.", float64(ps.CurrentSegment))
		gauge("bstserver_durable_watermark", "Append groups known durable.", float64(ps.DurableWatermark))
		gauge("bstserver_durable_phase", "Highest commit phase known durable.", float64(ps.DurablePhase))
	}

	gauge("bstserver_go_heap_alloc_bytes", "Live heap bytes (approximate).", float64(m.GC.HeapAllocBytes))
	gauge("bstserver_go_heap_objects", "Live heap objects (approximate).", float64(m.GC.HeapObjects))
	counter("bstserver_go_mallocs_total", "Cumulative heap allocations.", float64(m.GC.Mallocs))
	counter("bstserver_go_gc_total", "Cumulative garbage collections.", float64(m.GC.NumGC))
	counter("bstserver_go_gc_pause_seconds_total", "Cumulative stop-the-world pause.", float64(m.GC.GCPauseTotalNs)/1e9)
	return b.Bytes()
}

// promOpLatencies renders one bstserver_op_latency_seconds histogram per
// wire op. The aggregate fold is rebuilt here (rather than reusing
// Metrics.Ops) because the text format needs the raw buckets, not the
// percentile summary.
func (s *Server) promOpLatencies(b *bytes.Buffer) {
	agg := newConnMetrics()
	s.mu.Lock()
	agg.merge(s.done)
	for c := range s.conns {
		agg.merge(c.metrics)
	}
	s.mu.Unlock()

	fmt.Fprintf(b, "# HELP bstserver_op_latency_seconds Service time per wire op (decode done to reply buffered).\n# TYPE bstserver_op_latency_seconds histogram\n")
	for _, op := range wire.Ops() {
		h := agg.lats[op]
		if h == nil || h.Count() == 0 {
			continue
		}
		name := op.String()
		lastLe := math.Inf(-1)
		var lastCount uint64
		for _, bk := range h.Buckets() {
			le := float64(bk.Le) / 1e9
			if bk.Le == math.MaxInt64 {
				le = math.Inf(1) // saturated top rows all report MaxInt64; collapse into +Inf
			}
			if le == lastLe {
				lastCount = bk.Count
				continue
			}
			if !math.IsInf(lastLe, -1) {
				fmt.Fprintf(b, "bstserver_op_latency_seconds_bucket{op=%q,le=%q} %d\n", name, promFloat(lastLe), lastCount)
			}
			lastLe, lastCount = le, bk.Count
		}
		fmt.Fprintf(b, "bstserver_op_latency_seconds_bucket{op=%q,le=\"+Inf\"} %d\n", name, h.Count())
		fmt.Fprintf(b, "bstserver_op_latency_seconds_sum{op=%q} %s\n", name, promFloat(h.Sum()/1e9))
		fmt.Fprintf(b, "bstserver_op_latency_seconds_count{op=%q} %d\n", name, h.Count())
	}
}

// promShards renders the per-shard gauge families and maintains the
// exporter-side load EWMA under promMu.
func (s *Server) promShards(b *bytes.Buffer, shards []bst.ShardInfo) {
	s.promMu.Lock()
	gen := shards[0].Gen // all rows come from one routing-table snapshot
	if gen != s.promGen || len(shards) != len(s.promPrev) {
		s.promGen = gen
		s.promPrev = make([]uint64, len(shards))
		s.promEwma = make([]float64, len(shards))
	}
	ewma := make([]float64, len(shards))
	for i, sh := range shards {
		delta := float64(sh.Load - s.promPrev[i])
		s.promPrev[i] = sh.Load
		s.promEwma[i] = (s.promEwma[i] + delta) / 2
		ewma[i] = s.promEwma[i]
	}
	s.promMu.Unlock()

	family := func(name, typ, help string, v func(sh bst.ShardInfo, i int) string) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for i, sh := range shards {
			fmt.Fprintf(b, "%s{shard=\"%d\"} %s\n", name, sh.Index, v(sh, i))
		}
	}
	u := func(f func(bst.ShardInfo) uint64) func(bst.ShardInfo, int) string {
		return func(sh bst.ShardInfo, _ int) string { return fmt.Sprintf("%d", f(sh)) }
	}
	family("bstserver_shard_load", "gauge", "Point ops routed to the shard in the current routing generation.",
		u(func(sh bst.ShardInfo) uint64 { return sh.Load }))
	family("bstserver_shard_load_ewma", "gauge", "Exporter-smoothed scrape-to-scrape routed-op delta.",
		func(_ bst.ShardInfo, i int) string { return promFloat(ewma[i]) })
	family("bstserver_shard_live_nodes", "gauge", "Live version-graph nodes at the shard's last Compact pass.",
		u(func(sh bst.ShardInfo) uint64 { return sh.LiveNodes }))
	family("bstserver_shard_version_graph", "gauge", "Current version-graph size (nodes).",
		u(func(sh bst.ShardInfo) uint64 { return uint64(sh.VersionGraph) }))
	family("bstserver_shard_horizon", "gauge", "Reclamation horizon of the shard's last Compact pass.",
		u(func(sh bst.ShardInfo) uint64 { return sh.Horizon }))
	family("bstserver_shard_retries_total", "counter", "Operation restarts in the shard's tree.",
		u(func(sh bst.ShardInfo) uint64 { return sh.Retries }))
	family("bstserver_shard_helps_total", "counter", "Helping completions in the shard's tree.",
		u(func(sh bst.ShardInfo) uint64 { return sh.Helps }))
	family("bstserver_shard_aborts_total", "counter", "Handshake aborts in the shard's tree.",
		u(func(sh bst.ShardInfo) uint64 { return sh.Aborts }))
	family("bstserver_shard_compactions_total", "counter", "Compact passes in the shard's tree.",
		u(func(sh bst.ShardInfo) uint64 { return sh.Compactions }))
	family("bstserver_shard_pruned_links_total", "counter", "Version-chain links cut in the shard's tree.",
		u(func(sh bst.ShardInfo) uint64 { return sh.PrunedLinks }))
}

// promFloat renders a float the way the exposition format expects:
// integral values without an exponent, specials as +Inf/-Inf/NaN.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}

func sumCounts(events map[string]EventMetric) uint64 {
	var n uint64
	for _, e := range events {
		n += e.Count
	}
	return n
}

// eventTypeOrder returns the non-None event types in enum order, so the
// exposition's label sets are stable scrape to scrape.
func eventTypeOrder() []obs.EventType {
	out := make([]obs.EventType, 0, obs.NumEventTypes-1)
	for t := obs.EventType(1); int(t) < obs.NumEventTypes; t++ {
		out = append(out, t)
	}
	return out
}

// serveRuntimeMetrics dumps the runtime/metrics catalog as a flat JSON
// object: scalar samples verbatim, histogram samples summarized to
// their total count (use /debug/pprof for distributions).
func serveRuntimeMetrics(w http.ResponseWriter, r *http.Request) {
	descs := metrics.All()
	samples := make([]metrics.Sample, len(descs))
	for i, d := range descs {
		samples[i].Name = d.Name
	}
	metrics.Read(samples)
	doc := make(map[string]any, len(samples))
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			doc[s.Name] = s.Value.Uint64()
		case metrics.KindFloat64:
			v := s.Value.Float64()
			if math.IsInf(v, 0) || math.IsNaN(v) {
				doc[s.Name] = fmt.Sprintf("%g", v)
				continue
			}
			doc[s.Name] = v
		case metrics.KindFloat64Histogram:
			var n uint64
			for _, c := range s.Value.Float64Histogram().Counts {
				n += c
			}
			doc[s.Name+":count"] = n
		}
	}
	w.Header().Set("Content-Type", "application/json")
	b, err := json.MarshalIndent(doc, "", " ") // map keys marshal sorted
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(b) //nolint:errcheck
}
