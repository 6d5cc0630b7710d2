package core

// Batch execution. The single-op entry points pay a fixed toll per call
// — a phase-clock read and (for composite structures) a routing-table
// resolution upstream — that dominates once the tree itself is fast.
// TryApplyOps hoists those costs out of the loop: one cached phase read
// refreshed only when an attempt fails, the same per-attempt protocol
// otherwise (DESIGN.md §11).
//
// Semantics: each operation in the batch is INDIVIDUALLY linearizable,
// with its linearization point inside the TryApplyOps call; operations
// apply in slice order, so a later op on the same key observes the
// effects of an earlier one (read-your-writes within the batch). The
// batch as a whole is NOT atomic: a concurrent scan or update may be
// interleaved between any two ops of the batch, and a concurrent scan
// can observe a prefix of the batch's effects.
//
// Why the cached phase is sound:
//
//   - Commits: execute's handshake check (help, paper lines 111-112)
//     aborts any attempt whose phase no longer equals the clock, so an
//     update can only commit while the clock still reads the cached seq
//     — exactly the single-op guarantee. A stale cache costs one failed
//     attempt and a refresh, never a wrong commit.
//   - Reads: findOnce validates the traversed branch against the CURRENT
//     child pointers, so any attempt that validates is a read of the
//     present state regardless of how old seq is.
//   - Sealing: the per-op seal check loads sealed AFTER the phase that
//     attempt will use was read (the cache was filled even earlier), so
//     the Seal ordering argument (seal.go) holds verbatim: any op that
//     passes the check commits at a phase <= the migration cut and is
//     part of the migration snapshot.

// BatchKind selects what a BatchOp does.
type BatchKind uint8

// Batch operation kinds.
const (
	BatchInsert BatchKind = iota
	BatchDelete
	BatchContains
)

// String returns the kind's name.
func (k BatchKind) String() string {
	switch k {
	case BatchInsert:
		return "insert"
	case BatchDelete:
		return "delete"
	default:
		return "contains"
	}
}

// BatchOp is one point operation of a batch.
type BatchOp struct {
	Kind BatchKind
	Key  int64
}

// TryApplyOps applies ops in order, writing each op's result (Insert:
// key was absent; Delete: key was present; Contains: key is present)
// into res, which must be at least len(ops) long. See the file comment
// for the batch semantics: per-op linearizable, in-order, NOT atomic.
//
// Like TryInsert/TryDelete it refuses sealed trees: applied counts the
// ops that completed (res[:applied] is valid) and ok=false reports that
// the tree was sealed before ops[applied] took effect — the caller
// re-routes the remainder, exactly as with the single-op Try calls.
// Every completed op's contract is the single-op one; none of the
// remainder left any trace.
func (t *Tree) TryApplyOps(ops []BatchOp, res []bool) (applied int, ok bool) {
	return t.TryApplyOpsPhases(ops, res, nil)
}

// TryApplyOpsPhases is TryApplyOps that additionally records each op's
// deciding phase into phases (ignored when nil, else at least len(ops)
// long). For effective Insert/Delete ops this is the exact commit phase,
// with TryInsertPhase's guarantee; durability stamps per-op WAL records
// with it. Note the cached phase makes runs of phases non-decreasing but
// individual ops still get the phase their own successful attempt used.
func (t *Tree) TryApplyOpsPhases(ops []BatchOp, res []bool, phases []uint64) (applied int, ok bool) {
	if len(res) < len(ops) {
		panic("core: TryApplyOps result slice shorter than ops")
	}
	if phases != nil && len(phases) < len(ops) {
		panic("core: TryApplyOpsPhases phase slice shorter than ops")
	}
	for _, op := range ops {
		checkKey(op.Key)
	}
	seq := t.clock.Now()
	for i, op := range ops {
		for {
			if op.Kind != BatchContains && t.sealed.Load() {
				return i, false
			}
			var r bool
			var st opOutcome
			switch op.Kind {
			case BatchInsert:
				r, st = t.insertOnce(op.Key, seq)
			case BatchDelete:
				r, st = t.deleteOnce(op.Key, seq)
			default:
				r, st = t.findOnce(op.Key, seq)
			}
			if st == opDone {
				res[i] = r
				if phases != nil {
					phases[i] = seq
				}
				break
			}
			seq = t.clock.Now() // refresh the cached phase, then retry the op
		}
	}
	return len(ops), true
}

// ApplyOps is TryApplyOps for standalone trees, where sealing is a
// routing bug (only shard migrations seal): it panics like Insert/Delete
// on a sealed tree instead of returning a remainder.
func (t *Tree) ApplyOps(ops []BatchOp, res []bool) {
	if _, ok := t.TryApplyOps(ops, res); !ok {
		panic("core: ApplyOps on a sealed Tree (re-route the remainder and use TryApplyOps; see Seal)")
	}
}
