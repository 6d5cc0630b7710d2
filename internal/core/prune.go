package core

// Version pruning. Compact walks the portion of the version graph that
// any reader with phase >= Horizon() can still reach and cuts the prev
// pointer of the terminal node of every version chain — the first node
// with seq <= horizon, where every reader's ReadChild stops. Everything
// behind a cut is unreachable from the tree and is left to Go's GC, which
// frees it once no in-flight traversal still holds a pointer into it. An
// unreleased Snapshot cannot reference cut versions: live Snapshots hold
// the horizon at or below their phase.
//
// What a cut may and may not remove (DESIGN.md §6): it may only unlink
// versions *strictly behind* a phase-<=H node. It never relinks a chain
// around a middle node — a node x with seq > H stays linked because some
// active reader with phase in [H, x.seq) may still need to step through
// x to an older version. Cutting is monotone (prev only ever changes to
// nil) and idempotent. Compact passes are serialized by an internal
// mutex (the pass stamp needs a single writer), and Compact is safe
// concurrently with updates and registered readers: updaters never read
// prev except through ReadChild, which retries the operation at a fresh
// phase when it meets a cut chain (tree.go).

import "repro/internal/obs"

// CompactStats reports one Compact pass.
type CompactStats struct {
	Horizon      uint64 // reclamation horizon the pass used
	LiveNodes    int    // nodes still reachable by some phase->=horizon reader
	PrunedLinks  uint64 // version chains cut by this pass
	RetiredInfos uint64 // decided descriptors swapped for reference-free ones
}

// Compact prunes all versions behind the current reclamation horizon and
// returns the pass's statistics. It stamps the live version graph with a
// fresh pass number and runs concurrently with any mix of operations;
// updates racing with the walk are simply left for the next pass.
// Typical use is periodic (see bst.Tree.StartAutoCompact) or after
// bursts of updates.
func (t *Tree) Compact() CompactStats {
	t.compactMu.Lock()
	defer t.compactMu.Unlock()

	cs := CompactStats{Horizon: t.Horizon()}
	// A fresh stamp value makes every node "unvisited" without touching
	// it; pass numbers never repeat (pass 0 is skipped so the zero value
	// of fresh nodes can never collide).
	t.pass++
	t.pruneWalk(t.root, cs.Horizon, t.pass, &cs)

	t.stats.compactions.Add(1)
	t.stats.prunedLinks.Add(cs.PrunedLinks)
	t.stats.lastLiveNodes.Store(uint64(cs.LiveNodes))
	t.stats.lastHorizon.Store(cs.Horizon)
	// Flight-record passes that did reclamation work (no-op passes on an
	// idle tree would only flood the ring). Phase stamp = the horizon the
	// pass pruned behind; payload = pruned links, retired infos, live
	// nodes after the pass. Shard is -1: the tree does not know its index
	// in a sharded set.
	if cs.PrunedLinks > 0 || cs.RetiredInfos > 0 {
		obs.Emit(obs.EventCompact, obs.KindNone, -1, cs.Horizon,
			int64(cs.PrunedLinks), int64(cs.RetiredInfos), int64(cs.LiveNodes))
	}
	return cs
}

// pruneWalk visits the version graph reachable by readers with phase in
// [h, now]: from each internal node it walks both child chains up to and
// including the first phase-<=h node (cutting that node's prev), and
// descends into every chain member. The graph is a DAG (Delete copies a
// sibling but shares its subtree), so the pass stamp keeps the walk
// linear in the graph size.
func (t *Tree) pruneWalk(n *node, h uint64, pass uint64, cs *CompactStats) {
	if n == nil || n.visit.Load() == pass {
		return
	}
	n.visit.Store(pass)
	cs.LiveNodes++
	t.retireUpdate(n, cs)
	if n.isLeaf() {
		return
	}
	for _, left := range []bool{true, false} {
		var c *node
		if left {
			c = n.left.Load()
		} else {
			c = n.right.Load()
		}
		// Chain members newer than the horizon stay linked and live.
		for c != nil && c.seqNum() > h {
			t.pruneWalk(c, h, pass, cs)
			c = c.prev.Load()
		}
		if c == nil {
			continue // chain already cut at or above the horizon
		}
		// c is the terminal version: every reader stops here or earlier.
		if c.prev.Load() != nil {
			c.prev.Store(nil)
			cs.PrunedLinks++
		}
		t.pruneWalk(c, h, pass, cs)
	}
}

// retireUpdate breaks the second retention path: a decided Info still
// references the nodes of its attempt (nodes, oldUpdate, par, oldChild),
// so a live node's update field would keep every predecessor reachable
// even after its prev chain is cut. Once an attempt is decided its Info
// is only ever consulted for (typ, state) — helping reads the rest only
// while the state is Try — so the node's descriptor can be swapped for a
// reference-free equivalent: unfrozen (flag+Abort) for decided-unfrozen
// descriptors, permanently frozen (mark+Commit) for committed marks.
//
// The replacement is a fresh 16-B descriptor pointing at one of two
// shared, decided infos (retiredAbort, retiredCommit). Every live node
// ends up holding one, so a fresh 128-B info per retire made the heap
// per key grow with the number of updates a tree had seen. Sharing the
// info is safe because freeze CASes compare *descriptor pointers: the
// replacement need only be a descriptor no in-flight CAS can hold as an
// expected value, which a fresh allocation is (Lemma 7: every installed
// value was created after the expected value was read, and the GC never
// reuses an address someone still holds). The shared infos are marked
// retired, so each node's descriptor is swept at most once. Processes
// still holding the original Info can keep using it — its fields are
// never cleared; only the node's reference to it is dropped.
func (t *Tree) retireUpdate(n *node, cs *CompactStats) {
	d := n.update.Load()
	if d.info.retired || inProgress(d.info) {
		return
	}
	nd := &descriptor{typ: flag, info: retiredAbort}
	if frozen(d) { // a committed mark is permanent; stay frozen
		nd = &descriptor{typ: mark, info: retiredCommit}
	}
	if n.update.CompareAndSwap(d, nd) { // a lost race leaves nd unpublished
		cs.RetiredInfos++
	}
}

// retiredAbort and retiredCommit are the decided, reference-free infos
// every retired descriptor points at (retireUpdate). They are never
// frozen onto a node themselves, so their embedded descriptors stay
// unused.
var (
	retiredAbort  = decidedInfo(stateAbort)
	retiredCommit = decidedInfo(stateCommit)
)

// decidedInfo returns a retired info whose attempt is decided in state s.
func decidedInfo(s int32) *info {
	in := new(info)
	in.retired = true
	in.state.Store(s)
	return in
}

// VersionGraphSize returns the number of nodes reachable in the whole
// version graph — child pointers plus entire prev chains — from the
// root. With pruning this is O(live versions); without it, it grows with
// the total update count. Diagnostic: call at quiescence for an exact
// figure (a concurrent walk is safe but approximate).
func (t *Tree) VersionGraphSize() int {
	visited := make(map[*node]struct{}, 256)
	var walk func(n *node)
	walk = func(n *node) {
		for n != nil {
			if _, ok := visited[n]; ok {
				return
			}
			visited[n] = struct{}{}
			if !n.isLeaf() {
				walk(n.left.Load())
				walk(n.right.Load())
			}
			n = n.prev.Load()
		}
	}
	walk(t.root)
	return len(visited)
}
