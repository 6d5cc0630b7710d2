package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/epoch"
)

// Tree is a PNB-BST: a linearizable concurrent set of int64 keys with
// non-blocking Insert/Delete/Find and wait-free RangeScan/Snapshot.
// The zero value is not usable; call New.
//
// All methods are safe for concurrent use by any number of goroutines.
type Tree struct {
	// clock is the tree's phase counter. New gives every tree its own;
	// NewWithClock lets several trees share one, which is what makes
	// cross-shard scans atomic (see Clock and internal/shard).
	clock *Clock

	root  *node
	dummy *descriptor

	// disableHandshake removes the paper's handshaking check (Help,
	// lines 111-113) so that every attempt proceeds as if the counter
	// still matched. Used ONLY by the E9 ablation experiment to make the
	// linearizability violation the handshake prevents observable. Never
	// set this in production use.
	disableHandshake bool

	// readers tracks the phases of in-flight RangeScans and live
	// Snapshots so Compact can bound the reclamation horizon (horizon.go).
	readers epoch.Table

	// sealed permanently retires the tree from updates (Seal); set by a
	// shard migration just before it opens its snapshot-cut phase, so that
	// no update can ever commit here at a phase above the cut (seal.go).
	sealed atomic.Bool

	// compactMu serializes Compact passes: the pass stamp relies on one
	// pruner at a time (prune.go).
	compactMu sync.Mutex

	// pass numbers the Compact passes (guarded by compactMu, starting at
	// 1): each pass stamps the nodes it reaches with its number, which is
	// the pruner's visited set (node.visit in types.go).
	pass uint64

	stats Stats
}

// New returns an empty tree, initialized per Figure 2 (lines 28-31): the
// root is an internal node with key ∞2 whose children are leaves ∞1 and
// ∞2, all with sequence number 0 and flagged with the dummy Info object
// (whose state is Abort, i.e. not frozen). The tree gets a private phase
// clock; use NewWithClock to share one clock across several trees.
func New() *Tree { return NewWithClock(NewClock()) }

// NewWithClock returns an empty tree whose phase counter is the given
// clock (nil gets a fresh private clock). Trees sharing a clock form one
// phase domain: a phase opened on the clock closes the current phase of
// every tree at once, so phase-explicit reads (RangeScanAt, SnapshotAt)
// taken at that phase across the trees form a single atomic cut. The
// price is that the handshaking check now aborts a pending update in any
// tree of the domain when the shared clock advances, wherever the advance
// came from.
func NewWithClock(c *Clock) *Tree {
	if c == nil {
		c = NewClock()
	}
	t := &Tree{clock: c}
	dummyInfo := newInfo()
	dummyInfo.retired = true // reference-free; the pruner must never re-sweep it
	dummyInfo.state.Store(stateAbort)
	t.dummy = &dummyInfo.flagD

	root := &node{key: inf2}
	root.update.Store(t.dummy)
	root.left.Store(t.newLeaf(inf1, 0))
	root.right.Store(t.newLeaf(inf2, 0))
	t.root = root
	return t
}

// NewUnsafeNoHandshake returns a tree with the handshaking check disabled.
// Such a tree is NOT linearizable when range scans run concurrently with
// updates; it exists solely for the E9 ablation experiment.
func NewUnsafeNoHandshake() *Tree {
	t := New()
	t.disableHandshake = true
	return t
}

func checkKey(k int64) {
	if k > MaxKey {
		panic(fmt.Sprintf("core: key %d exceeds MaxKey (%d reserved for sentinels)", k, MaxKey))
	}
}

// readChild implements ReadChild (lines 43-48): follow the left or right
// child pointer of p, then chase prev pointers until reaching the first
// node whose sequence number is at most seq (the "version-seq child").
//
// It returns nil when the chain was cut by the pruner before reaching a
// phase-<=seq version. That can only happen when seq is below the
// reclamation horizon: for registered readers (RangeScan, Snapshot) the
// horizon never passes their phase, and for unregistered traversals
// (Find, Insert, Delete) seq was read from the counter, so a cut chain
// means the counter has moved on and the operation retries with a fresh
// phase (see prune.go for the horizon argument). Cut versions are left to
// Go's GC, which never reuses an address a traversal can still reach.
func readChild(p *node, left bool, seq uint64) *node {
	var l *node
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

// mustReadChild is readChild for registered readers, whose phase the
// pruner can never overtake; a cut chain here means the registration was
// released while the traversal was still running, and fails loudly.
func mustReadChild(p *node, left bool, seq uint64) *node {
	l := readChild(p, left, seq)
	if l == nil {
		panic("core: version chain pruned below an active traversal's phase (Snapshot used after Release?)")
	}
	return l
}

// search implements Search(k, seq) (lines 32-42): traverse a branch of
// T_seq from the root to a leaf, returning the leaf, its parent and its
// grandparent (gp is nil when the leaf's parent is the root). A nil leaf
// reports that the pruner cut a version chain under seq; callers restart
// with a fresh phase.
func (t *Tree) search(k int64, seq uint64) (gp, p, l *node) {
	l = t.root
	for l != nil && !l.isLeaf() {
		gp = p
		p = l
		l = readChild(p, k < p.key, seq)
	}
	return gp, p, l
}

// validateLink implements ValidateLink (lines 49-59): fail (after helping)
// if parent is frozen, then check that child is still parent's current
// left/right child. On success it returns the un-frozen update value read
// from parent, to be used as the expected value of a later freeze CAS.
func (t *Tree) validateLink(parent, child *node, left bool) (bool, *descriptor) {
	up := parent.update.Load()
	if frozen(up) {
		t.help(up.info)
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

// validateLeaf implements ValidateLeaf (lines 60-68): validate the
// parent→leaf link and (unless p is the root) the grandparent→parent
// link, then re-read both update fields to ensure neither changed.
func (t *Tree) validateLeaf(gp, p, l *node, k int64) (bool, *descriptor, *descriptor) {
	var gpupdate *descriptor
	validated, pupdate := t.validateLink(p, l, k < p.key)
	if validated && p != t.root {
		validated, gpupdate = t.validateLink(gp, p, k < gp.key)
	}
	if validated {
		validated = p.update.Load() == pupdate &&
			(p == t.root || gp.update.Load() == gpupdate)
	}
	return validated, gpupdate, pupdate
}

// opOutcome classifies one single-phase attempt of a point operation.
// opDone carries a result; opRetry means the attempt failed (validation
// race, freeze conflict, or a version chain pruned under the phase) and
// the caller must retry, normally at a fresh phase.
type opOutcome uint8

const (
	opDone opOutcome = iota
	opRetry
)

// findOnce is one attempt of Find at phase seq. Stale phases are safe:
// validateLeaf anchors the traversed branch to the CURRENT child
// pointers, so a success at any seq is a read of the present state (an
// outdated seq merely makes validation likelier to fail and retry).
func (t *Tree) findOnce(k int64, seq uint64) (res bool, st opOutcome) {
	gp, p, l := t.search(k, seq)
	if l == nil {
		t.stats.retriesHorizon.Add(1)
		return false, opRetry
	}
	validated, _, _ := t.validateLeaf(gp, p, l, k)
	if validated {
		return l.key == k, opDone
	}
	t.stats.retriesFind.Add(1)
	return false, opRetry
}

// Find reports whether k is in the set (paper lines 69-82). It is
// linearizable and non-blocking; it helps an update only when that update
// has frozen the parent or grandparent of the leaf it arrives at.
func (t *Tree) Find(k int64) bool {
	checkKey(k)
	for {
		if res, st := t.findOnce(k, t.clock.Now()); st == opDone {
			return res
		}
	}
}

// Contains is an alias for Find.
func (t *Tree) Contains(k int64) bool { return t.Find(k) }

// casChild implements CAS-Child (lines 83-88).
func casChild(parent, old, new *node) {
	if new.key < parent.key {
		parent.left.CompareAndSwap(old, new)
	} else {
		parent.right.CompareAndSwap(old, new)
	}
}

// Insert adds k to the set, returning false if k was already present
// (paper lines 147-168). Non-blocking. Insert on a sealed tree is a
// routing bug (the caller should have re-resolved the owning tree) and
// panics; composite structures use TryInsert.
func (t *Tree) Insert(k int64) bool {
	res, ok := t.TryInsert(k)
	if !ok {
		panic("core: Insert on a sealed Tree (re-route the key and use TryInsert; see Seal)")
	}
	return res
}

// TryInsert is Insert that refuses sealed trees: ok=false reports that
// the tree is sealed and the insert did NOT take effect; the caller must
// re-resolve which tree owns k and retry there. When ok=false the
// operation left no trace: no attempt of this call committed, because
// every iteration re-checks the seal after reading its phase and any
// iteration that proceeded past the check has phase <= the seal's cut
// (see Seal) — so a committed attempt is part of the migration snapshot
// and TryInsert reports ok=true for it.
func (t *Tree) TryInsert(k int64) (res, ok bool) {
	res, _, ok = t.TryInsertPhase(k)
	return res, ok
}

// TryInsertPhase is TryInsert that additionally reports the phase the
// deciding attempt ran at. For an effective insert (res=true) this is the
// EXACT commit phase: the handshake check in help aborts any attempt whose
// phase no longer matches the clock, so a commit at seq proves the clock
// still read seq at decision time. Durability stamps WAL records with this
// phase; a later checkpoint cut c therefore covers the update iff
// phase <= c, which is what makes "replay records with phase > c" exact
// (internal/persist). For res=false the phase is the one the duplicate
// was observed at (the linearization phase of the failed insert).
func (t *Tree) TryInsertPhase(k int64) (res bool, phase uint64, ok bool) {
	checkKey(k)
	for {
		seq := t.clock.Now()
		if t.sealed.Load() {
			return false, 0, false
		}
		if res, st := t.insertOnce(k, seq); st == opDone {
			return res, seq, true
		}
	}
}

// newLeaf allocates a leaf initialized as the paper's Insert does
// (lines 161-162): fresh leaves have prev = ⊥.
func (t *Tree) newLeaf(key int64, seq uint64) *node {
	return t.newNode(key, seq, nil, true)
}

// newNode allocates a node whose prev pointer is the replaced node (the
// paper writes prev at creation; it is never changed afterwards except
// for the pruner's cut to nil). Internal callers set left/right before
// publishing.
func (t *Tree) newNode(key int64, seq uint64, prev *node, leaf bool) *node {
	n := &node{key: key, seqLeaf: packSeqLeaf(seq, leaf)}
	n.prev.Store(prev)
	n.update.Store(t.dummy)
	return n
}

// insertOnce is one attempt of Insert at phase seq (paper lines 147-168).
// A stale seq can never commit wrongly: execute's handshake check aborts
// any attempt whose phase no longer matches the clock, so a commit at seq
// proves the clock still read seq at decision time.
func (t *Tree) insertOnce(k int64, seq uint64) (res bool, st opOutcome) {
	gp, p, l := t.search(k, seq)
	if l == nil {
		t.stats.retriesHorizon.Add(1)
		return false, opRetry
	}
	validated, _, pupdate := t.validateLeaf(gp, p, l, k)
	if !validated {
		t.stats.retriesInsert.Add(1)
		return false, opRetry
	}
	if l.key == k {
		return false, opDone // cannot insert duplicate key
	}
	// Build the replacement subtree: an internal node whose two
	// children are a fresh leaf for k and a fresh copy of l
	// (lines 161-163). The internal node's prev points at l.
	nl := t.newLeaf(k, seq)
	sib := t.newLeaf(l.key, seq)
	ni := t.newNode(maxKey(k, l.key), seq, l, false)
	if k < l.key {
		ni.left.Store(nl)
		ni.right.Store(sib)
	} else {
		ni.left.Store(sib)
		ni.right.Store(nl)
	}
	ok := t.execute(
		[maxFreeze]*node{p, l},
		[maxFreeze]*descriptor{pupdate, l.update.Load()},
		2, 1<<1, // mark = {l}
		p, l, ni, seq, true)
	if ok {
		return true, opDone
	}
	t.stats.retriesInsert.Add(1)
	return false, opRetry
}

// Delete removes k from the set, returning false if k was absent (paper
// lines 169-195). Unlike NB-BST, the surviving sibling is *copied* (with
// the current phase and prev = p) rather than re-linked, which keeps the
// prev/child graph acyclic (paper §4.2). Non-blocking. Delete on a sealed
// tree panics, like Insert; composite structures use TryDelete.
func (t *Tree) Delete(k int64) bool {
	res, ok := t.TryDelete(k)
	if !ok {
		panic("core: Delete on a sealed Tree (re-route the key and use TryDelete; see Seal)")
	}
	return res
}

// TryDelete is Delete that refuses sealed trees, with exactly TryInsert's
// contract: ok=false means the tree is sealed and the delete did not take
// effect; ok=true results are part of the migration snapshot.
func (t *Tree) TryDelete(k int64) (res, ok bool) {
	res, _, ok = t.TryDeletePhase(k)
	return res, ok
}

// TryDeletePhase is TryDelete reporting the deciding attempt's phase,
// with exactly TryInsertPhase's contract: for res=true it is the exact
// commit phase of the delete.
func (t *Tree) TryDeletePhase(k int64) (res bool, phase uint64, ok bool) {
	checkKey(k)
	for {
		seq := t.clock.Now()
		if t.sealed.Load() {
			return false, 0, false
		}
		if res, st := t.deleteOnce(k, seq); st == opDone {
			return res, seq, true
		}
	}
}

// deleteOnce is one attempt of Delete at phase seq (paper lines 169-195);
// insertOnce's note on stale phases applies unchanged.
func (t *Tree) deleteOnce(k int64, seq uint64) (res bool, st opOutcome) {
	gp, p, l := t.search(k, seq)
	if l == nil {
		t.stats.retriesHorizon.Add(1)
		return false, opRetry
	}
	validated, gpupdate, pupdate := t.validateLeaf(gp, p, l, k)
	if !validated {
		t.stats.retriesDelete.Add(1)
		return false, opRetry
	}
	if l.key != k {
		return false, opDone // key not in the tree
	}
	// The sibling is on the opposite side of l under p (line 182):
	// if l is p's right child (l.key >= p.key) the sibling is the left.
	sibLeft := l.key >= p.key
	sibling := readChild(p, sibLeft, seq)
	if sibling == nil {
		t.stats.retriesHorizon.Add(1)
		return false, opRetry
	}
	validated, _ = t.validateLink(p, sibling, sibLeft)
	if !validated {
		t.stats.retriesDelete.Add(1)
		return false, opRetry
	}
	// Copy the sibling with the current phase; prev points at p, the
	// node the copy replaces under gp (line 185).
	cp := t.newNode(sibling.key, seq, p, sibling.isLeaf())
	var supdate *descriptor
	if !sibling.isLeaf() {
		cp.left.Store(sibling.left.Load())
		cp.right.Store(sibling.right.Load())
		// Re-validate that the copied children are still current and
		// the sibling is unfrozen (lines 186-188).
		validated, supdate = t.validateLink(sibling, cp.left.Load(), true)
		if validated {
			validated, _ = t.validateLink(sibling, cp.right.Load(), false)
		}
	} else {
		supdate = sibling.update.Load()
	}
	if validated {
		ok := t.execute(
			[maxFreeze]*node{gp, p, l, sibling},
			[maxFreeze]*descriptor{gpupdate, pupdate, l.update.Load(), supdate},
			4, 1<<1|1<<2|1<<3, // mark = {p, l, sibling}
			gp, p, cp, seq, false)
		if ok {
			return true, opDone
		}
	}
	t.stats.retriesDelete.Add(1)
	return false, opRetry
}

// execute implements Execute (lines 92-106): bail out (helping in-progress
// attempts) if any node to be frozen already is, otherwise publish a fresh
// Info object by flagging nodes[0] and run help to completion.
func (t *Tree) execute(nodes [maxFreeze]*node, oldUpdate [maxFreeze]*descriptor,
	nn uint8, markMask uint8, par, oldChild, newChild *node, seq uint64, ins bool) bool {
	for i := 0; i < int(nn); i++ {
		if frozen(oldUpdate[i]) {
			if inProgress(oldUpdate[i].info) {
				t.stats.helps.Add(1)
				t.help(oldUpdate[i].info)
			}
			return false
		}
	}
	in := newInfo()
	in.nodes = nodes
	in.oldUpdate = oldUpdate
	in.nn = nn
	in.markMask = markMask
	in.par = par
	in.oldChild = oldChild
	in.newChild = newChild
	in.seq = seq
	in.ins = ins
	if nodes[0].update.CompareAndSwap(oldUpdate[0], &in.flagD) { // freeze (flag) CAS
		return t.help(in)
	}
	return false
}

// newInfo allocates an info in state ⊥ with its embedded flag/mark
// descriptors wired to itself.
func newInfo() *info {
	in := new(info)
	in.flagD = descriptor{typ: flag, info: in}
	in.markD = descriptor{typ: mark, info: in}
	return in
}

// help implements Help (lines 107-128). It first performs the handshaking
// check: if the phase counter moved past in.seq, a scan may already have
// traversed the region this attempt would modify, so the attempt aborts
// pro-actively (lines 111-112). Otherwise it freezes the remaining nodes,
// applies the child CAS and commits. Any process may help any attempt;
// only the first freeze CAS per node and the first child CAS can succeed.
func (t *Tree) help(in *info) bool {
	if !t.disableHandshake && t.clock.Now() != in.seq {
		if in.state.CompareAndSwap(stateUndecided, stateAbort) { // abort CAS
			t.stats.handshakeAborts.Add(1)
		}
	} else {
		in.state.CompareAndSwap(stateUndecided, stateTry) // try CAS
	}
	cont := in.state.Load() == stateTry
	for i := 1; cont && i < int(in.nn); i++ {
		d := &in.flagD
		if in.markMask&(1<<uint(i)) != 0 {
			d = &in.markD
		}
		in.nodes[i].update.CompareAndSwap(in.oldUpdate[i], d) // freeze CAS
		cont = in.nodes[i].update.Load().info == in
	}
	if cont {
		casChild(in.par, in.oldChild, in.newChild)
		in.state.Store(stateCommit) // commit write
	} else if in.state.Load() == stateTry {
		in.state.Store(stateAbort) // abort write
	}
	return in.state.Load() == stateCommit
}

func maxKey(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Root sequence accessors used by sibling files and tests.

// phase returns the current value of the phase clock.
func (t *Tree) phase() uint64 { return t.clock.Now() }

// Clock returns the tree's phase clock — the one it was constructed with
// (shared with other trees if NewWithClock was used).
func (t *Tree) Clock() *Clock { return t.clock }
