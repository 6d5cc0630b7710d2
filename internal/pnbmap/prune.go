package pnbmap

// Version pruning for the key-value map: the same two-part reclamation
// as internal/core/prune.go — cut prev chains at the first node whose
// phase is at or below the reclamation horizon, and swap decided update
// descriptors for fresh reference-free ones so Info objects stop
// retaining replaced nodes. See core's prune.go and DESIGN.md §6 for the
// full safety argument; it carries over verbatim (the value payload
// plays no role in it).

// CompactStats reports one Compact pass.
type CompactStats struct {
	Horizon      uint64 // reclamation horizon the pass used
	LiveNodes    int    // nodes still reachable by some phase->=horizon reader
	PrunedLinks  uint64 // version chains cut by this pass
	RetiredInfos uint64 // decided descriptors swapped for reference-free ones
}

// Horizon returns the minimum phase any active or future reader may
// traverse.
func (m *Map[V]) Horizon() uint64 {
	return m.readers.Min(m.clock.Now())
}

// Compact prunes all versions behind the current reclamation horizon.
// Safe concurrently with any mix of operations.
func (m *Map[V]) Compact() CompactStats {
	cs := CompactStats{Horizon: m.Horizon()}
	visited := make(map[*node[V]]struct{}, 256)
	m.pruneWalk(m.root, cs.Horizon, visited, &cs)
	cs.LiveNodes = len(visited)
	return cs
}

func (m *Map[V]) pruneWalk(n *node[V], h uint64, visited map[*node[V]]struct{}, cs *CompactStats) {
	if n == nil {
		return
	}
	if _, ok := visited[n]; ok {
		return
	}
	visited[n] = struct{}{}
	m.retireUpdate(n, cs)
	if n.isLeaf() {
		return
	}
	for _, left := range []bool{true, false} {
		var c *node[V]
		if left {
			c = n.left.Load()
		} else {
			c = n.right.Load()
		}
		for c != nil && c.seqNum() > h {
			m.pruneWalk(c, h, visited, cs)
			c = c.prev.Load()
		}
		if c == nil {
			continue
		}
		if c.prev.Load() != nil {
			c.prev.Store(nil)
			cs.PrunedLinks++
		}
		m.pruneWalk(c, h, visited, cs)
	}
}

// retireUpdate swaps a decided descriptor for a freshly allocated
// reference-free equivalent (fresh, not shared: the no-ABA argument
// requires every installed update value to be newer than the expected
// value — see core.retireUpdate).
func (m *Map[V]) retireUpdate(n *node[V], cs *CompactStats) {
	d := n.update.Load()
	if d.info.retired || inProgress(d.info) {
		return
	}
	ri := newInfo[V]()
	ri.retired = true
	nd := &ri.flagD
	if frozen(d) { // a committed mark is permanent; stay frozen
		ri.state.Store(stateCommit)
		nd = &ri.markD
	} else {
		ri.state.Store(stateAbort)
	}
	if n.update.CompareAndSwap(d, nd) {
		cs.RetiredInfos++
	}
}

// VersionGraphSize returns the number of nodes reachable in the whole
// version graph (child pointers plus entire prev chains). Diagnostic;
// exact only at quiescence.
func (m *Map[V]) VersionGraphSize() int {
	visited := make(map[*node[V]]struct{}, 256)
	var walk func(n *node[V])
	walk = func(n *node[V]) {
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
	walk(m.root)
	return len(visited)
}
