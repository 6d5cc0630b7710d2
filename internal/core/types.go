package core

import (
	"math"
	"sync/atomic"
)

// Key sentinels. The paper stores keys from Key ∪ {∞1, ∞2}; we reserve the
// top two values of the int64 key space for the sentinels, so user keys
// must be at most MaxKey.
const (
	inf1 = math.MaxInt64 - 1 // ∞1: larger than every user key
	inf2 = math.MaxInt64     // ∞2: larger than ∞1

	// MaxKey is the largest key a caller may store.
	MaxKey = inf1 - 1
	// MinKey is the smallest key a caller may store.
	MinKey = math.MinInt64
)

// Info.state values (paper: {⊥, Try, Commit, Abort}).
const (
	stateUndecided int32 = iota // ⊥ — attempt not yet through handshaking
	stateTry                    // handshake passed, freezing in progress
	stateCommit                 // child CAS applied; update took effect
	stateAbort                  // attempt abandoned (handshake or freeze failed)
)

// descType distinguishes flag from mark freezes (paper: Update.type).
type descType uint8

const (
	flag descType = iota // node's child pointer is about to change
	mark                 // node is about to be removed (permanent if committed)
)

// descriptor is the paper's one-word Update record {type, *Info}. Every
// info embeds exactly one flag descriptor and one mark descriptor
// (flagD/markD below), both pointing back at it, so installing a freeze
// costs no allocation: the CAS installs &in.flagD or &in.markD. The
// descriptor values are immutable, and Go's GC never reuses the address
// of a descriptor that any goroutine can still hold as an expected
// value, so CAS on the *descriptor pointer remains equivalent to CAS on
// the packed word: the paper's no-ABA argument (Lemma 7) — every
// successful CAS installs a pointer to an Info created after the
// expected value was read — holds unchanged.
type descriptor struct {
	typ  descType
	info *info
}

// maxFreeze bounds the nodes one attempt touches: Insert freezes
// {parent, leaf}, Delete freezes {grandparent, parent, leaf, sibling}.
const maxFreeze = 4

// info is the paper's Info object (Figure 2, lines 5-14). It describes one
// attempt of an Insert or Delete so that any process can complete (help)
// or abort it. All fields except state are immutable between newInfo and
// the attempt's decision.
//
// An info's node references (nodes, oldUpdate, par, oldChild) are only
// needed while the attempt is undecided; afterwards they retain the
// replaced nodes, which is why the pruner swaps decided descriptors for
// reference-free ones (retireUpdate in prune.go). retired marks such
// replacements (and the dummy) so they are never swept again.
type info struct {
	state atomic.Int32 // ⊥ / Try / Commit / Abort

	nn        uint8                  // number of nodes to freeze
	markMask  uint8                  // bit i set ⇒ nodes[i] is marked (mark ⊆ nodes)
	ins       bool                   // created by Insert (for introspection/stats only)
	retired   bool                   // reference-free replacement installed by the pruner
	nodes     [maxFreeze]*node       // nodes to freeze, in freeze order; nodes[0] is flagged first
	oldUpdate [maxFreeze]*descriptor // expected update values for the freeze CASes
	par       *node                  // node whose child pointer changes (an element of nodes)
	oldChild  *node                  // expected child of par
	newChild  *node                  // replacement child; newChild.prev == oldChild
	seq       uint64                 // phase of the attempt

	// Pre-typed freeze descriptors pointing back at this info. They are
	// initialized once (newInfo) and never change: flagD = {flag, this},
	// markD = {mark, this}.
	flagD, markD descriptor
}

// leafBit is packed into the top bit of node.seqLeaf. Phase numbers are
// counters starting at 0, so bit 63 is never reached by a real phase.
const leafBit = uint64(1) << 63

// node represents both Internal and Leaf nodes (paper Figure 2, lines
// 15-27). A leaf never has its left/right pointers set; the leaf bit of
// seqLeaf discriminates. key and seqLeaf are immutable after creation.
// prev is written once at creation (the node this one replaced in its
// parent; nil for phase-0 nodes and fresh leaves) and may later be reset
// to nil — exactly once, monotonically — by the version pruner when every
// version behind it has fallen below the reclamation horizon (see
// prune.go). Readers therefore load it atomically.
type node struct {
	key     int64
	seqLeaf uint64 // bit 63 = leaf flag, low 63 bits = creation phase

	// visit is the pruner's pass stamp: Compact marks each node it
	// reaches with the pass number instead of keeping a per-pass visited
	// map (map traffic dominated the pass's cost). Written only under the
	// compaction mutex, but atomically, because updaters and readers
	// traverse the node concurrently.
	visit atomic.Uint64

	prev        atomic.Pointer[node]
	update      atomic.Pointer[descriptor]
	left, right atomic.Pointer[node] // internal nodes only
}

// seqNum returns the phase of the operation that created this node.
func (n *node) seqNum() uint64 { return n.seqLeaf &^ leafBit }

// isLeaf reports whether n is a leaf.
func (n *node) isLeaf() bool { return n.seqLeaf&leafBit != 0 }

// packSeqLeaf packs a phase number and the leaf flag into one word.
func packSeqLeaf(seq uint64, leaf bool) uint64 {
	if leaf {
		return seq | leafBit
	}
	return seq
}

// frozen reports whether a node whose update field holds d is frozen
// (paper lines 89-91): flagged with an in-progress attempt, or marked by
// an attempt that has not aborted (a committed mark is permanent).
func frozen(d *descriptor) bool {
	s := d.info.state.Load()
	if d.typ == flag {
		return s == stateUndecided || s == stateTry
	}
	// mark
	return s == stateUndecided || s == stateTry || s == stateCommit
}

// inProgress reports whether the attempt described by in has neither
// committed nor aborted yet.
func inProgress(in *info) bool {
	s := in.state.Load()
	return s == stateUndecided || s == stateTry
}
