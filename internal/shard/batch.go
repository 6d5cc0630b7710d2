package shard

import (
	"runtime"

	"repro/internal/core"
)

// ApplyBatch applies a vector of point operations, writing each op's
// result (Insert: was absent; Delete: was present; Contains: is present)
// into res, which must be at least len(ops) long.
//
// The batch path exists to amortize the per-op fixed costs: the routing
// table is loaded ONCE for the whole vector, ops are grouped by
// destination shard (stably, so two ops on the same key — necessarily
// the same shard — keep their slice order), and each shard group runs
// through core.TryApplyOps, which holds one cached phase read for the
// group instead of one per op (DESIGN.md §11).
//
// Semantics match the single-op path, not a transaction: every op is
// INDIVIDUALLY linearizable, with its linearization point inside the
// ApplyBatch call, and same-key ops take effect in slice order. The
// batch as a whole is explicitly NOT atomic — ops on different shards
// apply concurrently with unrelated traffic, and a scan can observe any
// subset of the batch's effects.
//
// Migrations are handled the way openPhase handles them for reads and
// Insert/Delete do for updates: a group landing on a shard sealed by a
// concurrent Split/Merge fails its per-attempt seal check inside
// TryApplyOps (no op ever commits above the migration cut — core.Seal),
// and the unapplied remainder re-routes through the replacement table
// after a yield. Ops that committed before the seal are part of the
// migration snapshot, so the re-routed remainder observes them.
func (s *Set) ApplyBatch(ops []core.BatchOp, res []bool) {
	s.ApplyBatchPhases(ops, res, nil)
}

// ApplyBatchPhases is ApplyBatch that additionally records each op's
// deciding phase into phases (ignored when nil, else at least len(ops)
// long), with core.TryApplyOpsPhases' contract: for effective
// Insert/Delete ops this is the exact commit phase. Durability stamps
// the per-op records of an MBATCH with these.
func (s *Set) ApplyBatchPhases(ops []core.BatchOp, res []bool, phases []uint64) {
	if len(res) < len(ops) {
		panic("shard: ApplyBatch result slice shorter than ops")
	}
	if phases != nil && len(phases) < len(ops) {
		panic("shard: ApplyBatchPhases phase slice shorter than ops")
	}
	if len(ops) == 0 {
		return
	}
	n := len(ops)
	pos := make([]int, n) // positions into ops still to apply, batch order
	for i := range pos {
		pos[i] = i
	}
	var (
		order = make([]int, n)          // pos regrouped by destination shard
		gops  = make([]core.BatchOp, n) // per-group op scratch
		gres  = make([]bool, n)         // per-group result scratch
		gph   []uint64                  // per-group phase scratch
	)
	if phases != nil {
		gph = make([]uint64, n)
	}
	for {
		tab := s.tab.Load()
		p := len(tab.trees)
		// Stable counting sort of the remaining positions by shard: one
		// Router resolution per op per table generation, not per attempt.
		shardOf := make([]int, len(pos))
		heads := make([]int, p+1)
		for j, i := range pos {
			g := tab.r.Of(ops[i].Key)
			shardOf[j] = g
			heads[g+1]++
		}
		for g := 0; g < p; g++ {
			heads[g+1] += heads[g]
		}
		next := make([]int, p)
		copy(next, heads[:p])
		order = order[:len(pos)]
		for j, i := range pos {
			g := shardOf[j]
			order[next[g]] = i
			next[g]++
		}
		rem := pos[:0] // positions whose shard sealed mid-group
		for g := 0; g < p; g++ {
			lo, hi := heads[g], heads[g+1]
			if lo == hi {
				continue
			}
			seg := order[lo:hi]
			for j, i := range seg {
				gops[j] = ops[i]
			}
			var segPh []uint64
			if gph != nil {
				segPh = gph[:len(seg)]
			}
			applied, ok := tab.trees[g].TryApplyOpsPhases(gops[:len(seg)], gres[:len(seg)], segPh)
			for j := 0; j < applied; j++ {
				res[seg[j]] = gres[j]
				if gph != nil {
					phases[seg[j]] = gph[j]
				}
			}
			if applied > 0 {
				tab.loads[g].addN(ops[seg[0]].Key, uint64(applied))
			}
			if !ok {
				rem = append(rem, seg[applied:]...)
			}
		}
		if len(rem) == 0 {
			return
		}
		pos = rem
		runtime.Gosched() // owning shard(s) mid-migration; wait for the swap
	}
}
