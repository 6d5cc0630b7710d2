package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/workload"
)

// E12Memory — memory under churn (Table E12): does version persistence
// cost bounded or unbounded memory, and what does reclamation cost in
// allocator traffic? One long-lived instance per configuration endures a
// sustained 50/50 insert/delete churn split into measurement windows;
// after every window the heap is sampled post-GC (harness.MeasureMem).
// The PNB-BST retains every superseded version through prev chains, so
// with pruning off its heap objects grow monotonically with the update
// count; with pruning on (Compact after each window) they stay flat at
// O(live set), matching the versionless nbbst/lockbst baselines up to a
// constant. A second table reports allocations per update and a third
// the GC pause per window: every version is a plain allocation that the
// GC reclaims once Compact cuts it (DESIGN.md §10). A final table reports
// the version-graph size for the PNB configurations — O(set size) pruned
// vs Θ(total updates) unpruned — the direct measure of what Compact
// reclaims.
func E12Memory(o Options) {
	keys := o.scale(1 << 15)
	windows := 6
	if o.Quick {
		windows = 3
	}
	threads := o.MaxThreads
	if threads < 1 {
		threads = 1
	}

	configs := []struct {
		name    string
		target  string
		compact bool
	}{
		{"pnbbst+compact", harness.TargetPNBBST, true},
		{"pnbbst", harness.TargetPNBBST, false},
		{harness.TargetNBBST, harness.TargetNBBST, false},
		{harness.TargetLockBST, harness.TargetLockBST, false},
	}

	type windowRow struct {
		heapObjects uint64
		liveNodes   int
		updates     uint64  // cumulative updates at the end of the window
		allocsPerOp float64 // heap allocations per update, this window
		gcPauseUs   uint64  // stop-the-world pause in the window, microseconds
		numGC       uint32  // collections in the window (one is MeasureMem's own)
	}
	samples := make([][]windowRow, len(configs))

	for ci, cfg := range configs {
		inst := harness.NewInstanceRange(cfg.target, 0, keys-1)
		prefill(inst, keys, o.Seed)
		samples[ci] = make([]windowRow, windows)
		base := harness.MeasureMem(inst) // allocation baseline after prefill
		var updates uint64
		for w := 0; w < windows; w++ {
			done := churn(inst, keys, threads, o.Duration, o.Seed+uint64(w)*997)
			updates += done
			if cfg.compact {
				harness.Compact(inst)
			}
			m := harness.MeasureMem(inst)
			row := windowRow{
				heapObjects: m.HeapObjects,
				liveNodes:   m.LiveVersionNodes,
				updates:     updates,
				gcPauseUs:   (m.GCPauseTotalNs - base.GCPauseTotalNs) / 1000,
				numGC:       m.NumGC - base.NumGC,
			}
			if done > 0 {
				row.allocsPerOp = float64(m.Mallocs-base.Mallocs) / float64(done)
			}
			samples[ci][w] = row
			base = m
		}
	}

	names := make([]string, len(configs))
	for i, c := range configs {
		names[i] = c.name
	}

	heap := harness.NewTable(
		fmt.Sprintf("E12: heap objects after each churn window (post-GC), %d keys, %d threads, %v/window",
			keys, threads, o.Duration),
		append([]string{"window", "updates(pnbbst+compact)"}, names...)...)
	for w := 0; w < windows; w++ {
		row := []any{w + 1, samples[0][w].updates}
		for ci := range configs {
			row = append(row, samples[ci][w].heapObjects)
		}
		heap.AddRow(row...)
	}
	o.emit(heap)

	allocs := harness.NewTable(
		"E12: heap allocations per update by window",
		append([]string{"window"}, names...)...)
	for w := 0; w < windows; w++ {
		row := []any{w + 1}
		for ci := range configs {
			row = append(row, fmt.Sprintf("%.2f", samples[ci][w].allocsPerOp))
		}
		allocs.AddRow(row...)
	}
	o.emit(allocs)

	pause := harness.NewTable(
		"E12: GC stop-the-world pause per window (µs, with cycle count)",
		append([]string{"window"}, names...)...)
	for w := 0; w < windows; w++ {
		row := []any{w + 1}
		for ci := range configs {
			row = append(row, fmt.Sprintf("%d (%d gc)", samples[ci][w].gcPauseUs, samples[ci][w].numGC))
		}
		pause.AddRow(row...)
	}
	o.emit(pause)

	versions := harness.NewTable(
		"E12: PNB-BST version-graph size by window — pruned stays O(live set), unpruned grows with updates",
		"window", configs[0].name, configs[1].name)
	for w := 0; w < windows; w++ {
		versions.AddRow(w+1, samples[0][w].liveNodes, samples[1][w].liveNodes)
	}
	o.emit(versions)
}

// prefill inserts keys/2 distinct random keys from [0, keys).
func prefill(inst harness.Instance, keys int64, seed uint64) {
	rng := workload.NewRNG(seed ^ 0xE12)
	inserted := int64(0)
	for inserted < keys/2 {
		if inst.Insert(rng.Intn(keys)) {
			inserted++
		}
	}
}

// churn drives a 50/50 insert/delete mix from `threads` goroutines for d
// and returns the number of completed update operations.
func churn(inst harness.Instance, keys int64, threads int, d time.Duration, seed uint64) uint64 {
	var stop atomic.Bool
	var total atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := workload.NewRNG(seed*131 + uint64(w))
			n := uint64(0)
			for !stop.Load() {
				k := rng.Intn(keys)
				if rng.Intn(2) == 0 {
					inst.Insert(k)
				} else {
					inst.Delete(k)
				}
				n++
			}
			total.Add(n)
		}(w)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	return total.Load()
}
