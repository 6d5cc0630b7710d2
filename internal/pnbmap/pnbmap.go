// Package pnbmap extends the PNB-BST algorithm from a set to a key-value
// map with an additional Put-replace operation.
//
// The paper presents Insert/Delete/Find on keys; its related-work section
// points at Shafiei's non-blocking Patricia trie "with replace
// operations" as the natural extension. Replacement fits the PNB-BST
// machinery directly: to change the value bound to an existing key k, an
// attempt freezes the leaf's parent (flag) and the leaf itself (mark),
// then swings the parent's child pointer from the old leaf to a fresh
// leaf carrying the new value, with prev pointing at the old leaf. All of
// the paper's arguments carry over:
//
//   - the new leaf has the attempt's sequence number, so version-i reads
//     with i < seq chase prev and still observe the old value
//     (persistence is preserved — snapshots see the value bound at their
//     phase);
//   - the replaced leaf is marked, the parent flagged, so the freeze
//     order and helping protocol are unchanged;
//   - the child CAS direction is well-defined because old and new leaf
//     carry the same key;
//   - the new leaf can never be installed at the root (the root's
//     children always have infinite keys, paper Invariant 4.15), so the
//     Execute precondition on infinite keys holds vacuously.
//
// The implementation is a faithful re-instantiation of internal/core with
// a value payload and the extra operation, kept separate so the set
// remains line-by-line comparable with the paper's pseudocode.
//
// Allocation scope: the map shares core's flat object layout (packed
// seq/leaf word, embedded pre-typed freeze descriptors, inline freeze
// arrays) and its reclamation: neither structure recycles nodes or infos,
// so versions Compact cuts go to Go's GC, values included.
package pnbmap

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/epoch"
)

const (
	inf1 = math.MaxInt64 - 1
	inf2 = math.MaxInt64

	// MaxKey is the largest storable key.
	MaxKey = inf1 - 1
	// MinKey is the smallest storable key.
	MinKey = math.MinInt64
)

const (
	stateUndecided int32 = iota
	stateTry
	stateCommit
	stateAbort
)

type descType uint8

const (
	flag descType = iota
	mark
)

type descriptor[V any] struct {
	typ  descType
	info *info[V]
}

// maxFreeze bounds the nodes one attempt touches (Delete freezes four).
const maxFreeze = 4

type info[V any] struct {
	state     atomic.Int32
	nn        uint8
	markMask  uint8
	retired   bool // reference-free replacement installed by the pruner
	nodes     [maxFreeze]*node[V]
	oldUpdate [maxFreeze]*descriptor[V]
	par       *node[V]
	oldChild  *node[V]
	newChild  *node[V]
	seq       uint64

	// Pre-typed freeze descriptors pointing back at this info, so a
	// freeze CAS installs &in.flagD / &in.markD with no extra allocation
	// (mirrors internal/core; see types.go there for the ABA note).
	flagD, markD descriptor[V]
}

// newInfo allocates an info with its embedded descriptors wired up.
func newInfo[V any]() *info[V] {
	in := new(info[V])
	in.flagD = descriptor[V]{typ: flag, info: in}
	in.markD = descriptor[V]{typ: mark, info: in}
	return in
}

// leafBit is packed into the top bit of node.seqLeaf, as in internal/core.
const leafBit = uint64(1) << 63

type node[V any] struct {
	key     int64
	val     V      // meaningful for leaves only
	seqLeaf uint64 // bit 63 = leaf flag, low 63 bits = creation phase

	// prev is written at creation and may later be cut to nil — once,
	// monotonically — by the pruner (see internal/core/prune.go for the
	// horizon argument, which carries over unchanged).
	prev        atomic.Pointer[node[V]]
	update      atomic.Pointer[descriptor[V]]
	left, right atomic.Pointer[node[V]]
}

func (n *node[V]) seqNum() uint64 { return n.seqLeaf &^ leafBit }
func (n *node[V]) isLeaf() bool   { return n.seqLeaf&leafBit != 0 }

func packSeqLeaf(seq uint64, leaf bool) uint64 {
	if leaf {
		return seq | leafBit
	}
	return seq
}

// Map is a persistent non-blocking BST map from int64 keys to values of
// type V, with wait-free consistent range scans and snapshots. All
// methods are safe for concurrent use. Values are returned by copy;
// replacing a key's value installs a fresh immutable leaf (there is no
// in-place mutation, which is what keeps old versions readable).
type Map[V any] struct {
	// clock is the map's phase counter (core.Clock, already padded). New
	// gives every map its own; NewWithClock lets a map share a phase
	// domain with other maps or trees, so a future sharded map front end
	// can take atomic cross-shard cuts exactly as internal/shard does for
	// the set (DESIGN.md §5.2).
	clock *core.Clock

	root  *node[V]
	dummy *descriptor[V]

	// readers tracks in-flight scans and live snapshots for the
	// reclamation horizon, exactly as in internal/core.
	readers epoch.Table

	// retriesHorizon counts point-op restarts caused by meeting a pruned
	// chain (the map counterpart of core's Stats.RetriesHorizon).
	retriesHorizon atomic.Uint64
}

// RetriesHorizon returns the number of Get/Put/Delete restarts caused by
// compaction cutting a version chain under the operation's phase — the
// observable for retry pressure from aggressive auto-compaction.
func (m *Map[V]) RetriesHorizon() uint64 { return m.retriesHorizon.Load() }

// New returns an empty map with a private phase clock.
func New[V any]() *Map[V] { return NewWithClock[V](core.NewClock()) }

// NewWithClock returns an empty map whose phase counter is the given
// shared clock (nil gets a fresh private clock); see core.NewWithClock
// for the phase-domain semantics.
func NewWithClock[V any](c *core.Clock) *Map[V] {
	if c == nil {
		c = core.NewClock()
	}
	m := &Map[V]{clock: c}
	dummyInfo := newInfo[V]()
	dummyInfo.retired = true
	dummyInfo.state.Store(stateAbort)
	m.dummy = &dummyInfo.flagD
	root := &node[V]{key: inf2}
	root.update.Store(m.dummy)
	root.left.Store(m.newLeaf(inf1, *new(V), 0, nil))
	root.right.Store(m.newLeaf(inf2, *new(V), 0, nil))
	m.root = root
	return m
}

// newNode allocates a node with prev and the dummy update initialized
// (mirrors core's newNode; keep node initialization in one place).
func (m *Map[V]) newNode(key int64, val V, seq uint64, prev *node[V], leaf bool) *node[V] {
	n := &node[V]{key: key, val: val, seqLeaf: packSeqLeaf(seq, leaf)}
	n.prev.Store(prev)
	n.update.Store(m.dummy)
	return n
}

func (m *Map[V]) newLeaf(key int64, val V, seq uint64, prev *node[V]) *node[V] {
	return m.newNode(key, val, seq, prev, true)
}

func checkKey(k int64) {
	if k > MaxKey {
		panic(fmt.Sprintf("pnbmap: key %d exceeds MaxKey", k))
	}
}

// readChild returns nil when the version chain was cut by the pruner
// below seq; point operations then retry at a fresh phase, and scans
// (whose registration keeps the horizon at or below their phase) treat
// it as a misuse panic — as in internal/core.
func readChild[V any](p *node[V], left bool, seq uint64) *node[V] {
	var l *node[V]
	if left {
		l = p.left.Load()
	} else {
		l = p.right.Load()
	}
	for l != nil && l.seqNum() > seq {
		l = l.prev.Load()
	}
	return l
}

func mustReadChild[V any](p *node[V], left bool, seq uint64) *node[V] {
	l := readChild(p, left, seq)
	if l == nil {
		panic("pnbmap: version chain pruned below an active traversal's phase (Snapshot used after Release?)")
	}
	return l
}

func (m *Map[V]) search(k int64, seq uint64) (gp, p, l *node[V]) {
	l = m.root
	for l != nil && !l.isLeaf() {
		gp = p
		p = l
		l = readChild(p, k < p.key, seq)
	}
	return gp, p, l
}

func frozen[V any](d *descriptor[V]) bool {
	s := d.info.state.Load()
	if d.typ == flag {
		return s == stateUndecided || s == stateTry
	}
	return s == stateUndecided || s == stateTry || s == stateCommit
}

func inProgress[V any](in *info[V]) bool {
	s := in.state.Load()
	return s == stateUndecided || s == stateTry
}

func (m *Map[V]) validateLink(parent, child *node[V], left bool) (bool, *descriptor[V]) {
	up := parent.update.Load()
	if frozen(up) {
		m.help(up.info)
		return false, nil
	}
	if left {
		if child != parent.left.Load() {
			return false, nil
		}
	} else {
		if child != parent.right.Load() {
			return false, nil
		}
	}
	return true, up
}

func (m *Map[V]) validateLeaf(gp, p, l *node[V], k int64) (bool, *descriptor[V], *descriptor[V]) {
	var gpupdate *descriptor[V]
	validated, pupdate := m.validateLink(p, l, k < p.key)
	if validated && p != m.root {
		validated, gpupdate = m.validateLink(gp, p, k < gp.key)
	}
	if validated {
		validated = p.update.Load() == pupdate &&
			(p == m.root || gp.update.Load() == gpupdate)
	}
	return validated, gpupdate, pupdate
}

// Get returns the value bound to k, if any. Non-blocking.
func (m *Map[V]) Get(k int64) (V, bool) {
	checkKey(k)
	for {
		seq := m.clock.Now()
		gp, p, l := m.search(k, seq)
		if l == nil {
			m.retriesHorizon.Add(1)
			continue // chain pruned under a stale phase; retry
		}
		validated, _, _ := m.validateLeaf(gp, p, l, k)
		if validated {
			if l.key == k {
				return l.val, true
			}
			return *new(V), false
		}
	}
}

// Contains reports whether k is bound.
func (m *Map[V]) Contains(k int64) bool {
	_, ok := m.Get(k)
	return ok
}

func casChild[V any](parent, old, new *node[V]) {
	if new.key < parent.key {
		parent.left.CompareAndSwap(old, new)
	} else {
		parent.right.CompareAndSwap(old, new)
	}
}

func (m *Map[V]) execute(nodes [maxFreeze]*node[V], oldUpdate [maxFreeze]*descriptor[V],
	nn uint8, markMask uint8, par, oldChild, newChild *node[V], seq uint64) bool {
	for i := 0; i < int(nn); i++ {
		if frozen(oldUpdate[i]) {
			if inProgress(oldUpdate[i].info) {
				m.help(oldUpdate[i].info)
			}
			return false
		}
	}
	in := newInfo[V]()
	in.nodes = nodes
	in.oldUpdate = oldUpdate
	in.nn = nn
	in.markMask = markMask
	in.par = par
	in.oldChild = oldChild
	in.newChild = newChild
	in.seq = seq
	if nodes[0].update.CompareAndSwap(oldUpdate[0], &in.flagD) {
		return m.help(in)
	}
	return false
}

func (m *Map[V]) help(in *info[V]) bool {
	if m.clock.Now() != in.seq {
		in.state.CompareAndSwap(stateUndecided, stateAbort)
	} else {
		in.state.CompareAndSwap(stateUndecided, stateTry)
	}
	cont := in.state.Load() == stateTry
	for i := 1; cont && i < int(in.nn); i++ {
		d := &in.flagD
		if in.markMask&(1<<uint(i)) != 0 {
			d = &in.markD
		}
		in.nodes[i].update.CompareAndSwap(in.oldUpdate[i], d)
		cont = in.nodes[i].update.Load().info == in
	}
	if cont {
		casChild(in.par, in.oldChild, in.newChild)
		in.state.Store(stateCommit)
	} else if in.state.Load() == stateTry {
		in.state.Store(stateAbort)
	}
	return in.state.Load() == stateCommit
}

// Put binds k to v. If k was absent it is inserted (returning false for
// replaced); if present, the leaf is replaced with a fresh one carrying v
// (returning true). Non-blocking; linearizes at the first freeze CAS of
// the successful attempt.
func (m *Map[V]) Put(k int64, v V) (replaced bool) {
	checkKey(k)
	for {
		seq := m.clock.Now()
		gp, p, l := m.search(k, seq)
		if l == nil {
			m.retriesHorizon.Add(1)
			continue // chain pruned under a stale phase; retry
		}
		validated, _, pupdate := m.validateLeaf(gp, p, l, k)
		if !validated {
			continue
		}
		if l.key == k {
			// Replace: swap the leaf for a new one with the same key.
			nl := m.newLeaf(k, v, seq, l)
			if m.execute(
				[maxFreeze]*node[V]{p, l},
				[maxFreeze]*descriptor[V]{pupdate, l.update.Load()},
				2, 1<<1, p, l, nl, seq) {
				return true
			}
			continue
		}
		// Insert: grow a subtree of three nodes, as in the set.
		nl := m.newLeaf(k, v, seq, nil)
		sib := m.newLeaf(l.key, l.val, seq, nil)
		ni := m.newNode(maxKey(k, l.key), *new(V), seq, l, false)
		if k < l.key {
			ni.left.Store(nl)
			ni.right.Store(sib)
		} else {
			ni.left.Store(sib)
			ni.right.Store(nl)
		}
		if m.execute(
			[maxFreeze]*node[V]{p, l},
			[maxFreeze]*descriptor[V]{pupdate, l.update.Load()},
			2, 1<<1, p, l, ni, seq) {
			return false
		}
	}
}

// Delete unbinds k, reporting whether it was bound. Non-blocking.
func (m *Map[V]) Delete(k int64) bool {
	checkKey(k)
	for {
		seq := m.clock.Now()
		gp, p, l := m.search(k, seq)
		if l == nil {
			m.retriesHorizon.Add(1)
			continue // chain pruned under a stale phase; retry
		}
		validated, gpupdate, pupdate := m.validateLeaf(gp, p, l, k)
		if !validated {
			continue
		}
		if l.key != k {
			return false
		}
		sibLeft := l.key >= p.key
		sibling := readChild(p, sibLeft, seq)
		if sibling == nil {
			m.retriesHorizon.Add(1)
			continue
		}
		validated, _ = m.validateLink(p, sibling, sibLeft)
		if !validated {
			continue
		}
		cp := m.newNode(sibling.key, sibling.val, seq, p, sibling.isLeaf())
		var supdate *descriptor[V]
		if !sibling.isLeaf() {
			cp.left.Store(sibling.left.Load())
			cp.right.Store(sibling.right.Load())
			validated, supdate = m.validateLink(sibling, cp.left.Load(), true)
			if validated {
				validated, _ = m.validateLink(sibling, cp.right.Load(), false)
			}
		} else {
			supdate = sibling.update.Load()
		}
		if validated && m.execute(
			[maxFreeze]*node[V]{gp, p, l, sibling},
			[maxFreeze]*descriptor[V]{gpupdate, pupdate, l.update.Load(), supdate},
			4, 1<<1|1<<2|1<<3, gp, p, cp, seq) {
			return true
		}
	}
}

func maxKey(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
