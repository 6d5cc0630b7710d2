package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/epoch"
	"repro/internal/lincheck"
	"repro/internal/workload"
)

// TestHorizonTracking: with no readers the horizon is the counter; a
// registration pins it at the registered bound; release lets it advance.
func TestHorizonTracking(t *testing.T) {
	tr := New()
	for i := int64(0); i < 10; i++ {
		tr.Insert(i)
		tr.RangeScan(0, i) // advance phases
	}
	if h, c := tr.Horizon(), tr.phase(); h != c {
		t.Fatalf("idle horizon = %d, want counter %d", h, c)
	}
	snap := tr.Snapshot()
	tr.RangeScan(0, 100)
	tr.RangeScan(0, 100)
	if h := tr.Horizon(); h > snap.Seq() {
		t.Fatalf("horizon %d passed live snapshot's phase %d", h, snap.Seq())
	}
	snap.Release()
	if h, c := tr.Horizon(), tr.phase(); h != c {
		t.Fatalf("post-release horizon = %d, want counter %d", h, c)
	}
	snap.Release() // idempotent
}

// TestHorizonOverflowRegistration exercises the mutex-protected overflow
// path: more simultaneous registrations than lock-free slots.
func TestHorizonOverflowRegistration(t *testing.T) {
	tr := New()
	tr.Insert(1)
	first := tr.Snapshot()
	snaps := make([]*Snapshot, 2*epoch.Slots)
	for i := range snaps {
		tr.RangeScan(0, 10) // space the phases out
		snaps[i] = tr.Snapshot()
	}
	if h := tr.Horizon(); h > first.Seq() {
		t.Fatalf("horizon %d passed oldest snapshot's phase %d", h, first.Seq())
	}
	for _, s := range snaps {
		s.Release()
	}
	if h := tr.Horizon(); h > first.Seq() {
		t.Fatalf("horizon %d passed the one remaining registration at %d", h, first.Seq())
	}
	first.Release()
	if h, c := tr.Horizon(), tr.phase(); h != c {
		t.Fatalf("after releasing all: horizon = %d, want counter %d", h, c)
	}
}

// TestQuiescentReclamation: after heavy churn with no active readers, the
// version graph holds Θ(update count) nodes; one Compact shrinks it to
// O(set size) without changing contents or breaking invariants.
func TestQuiescentReclamation(t *testing.T) {
	const keySpace, updates = 256, 20_000
	tr := New()
	rng := workload.NewRNG(99)
	for i := 0; i < updates; i++ {
		k := rng.Intn(keySpace)
		if rng.Intn(2) == 0 {
			tr.Insert(k)
		} else {
			tr.Delete(k)
		}
		if i%500 == 0 {
			tr.RangeScan(0, keySpace) // phases churn too; scans all complete
		}
	}
	want := tr.Keys()

	before := tr.VersionGraphSize()
	if before < updates/4 {
		t.Fatalf("pruning-off version graph = %d nodes after %d updates: expected Θ(updates) retention", before, updates)
	}
	cs := tr.Compact()
	after := tr.VersionGraphSize()
	limit := 4*tr.Len() + 16
	if after > limit {
		t.Fatalf("post-Compact version graph = %d nodes for %d keys (limit %d)", after, tr.Len(), limit)
	}
	if after >= before/10 {
		t.Fatalf("Compact barely shrank the graph: %d -> %d", before, after)
	}
	if cs.PrunedLinks == 0 || cs.LiveNodes != after {
		t.Fatalf("CompactStats = %+v, want PrunedLinks > 0 and LiveNodes == %d", cs, after)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after Compact: %v", err)
	}
	got := tr.Keys()
	if len(got) != len(want) {
		t.Fatalf("Compact changed contents: %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Compact changed contents at %d: %d != %d", i, got[i], want[i])
		}
	}
	// Idempotent: a second pass at quiescence finds nothing to cut.
	if cs2 := tr.Compact(); cs2.PrunedLinks != 0 {
		t.Fatalf("second Compact cut %d links on an already-pruned tree", cs2.PrunedLinks)
	}
	st := tr.Stats()
	if st.Compactions != 2 || st.PrunedLinks != cs.PrunedLinks || st.LastLiveNodes == 0 {
		t.Fatalf("stats gauges wrong: %+v", st)
	}
	// Updates keep working on the pruned tree.
	if !tr.Insert(MaxKey-5) || !tr.Find(MaxKey-5) {
		t.Fatal("insert/find after Compact failed")
	}
}

// TestCompactPreservesPinnedSnapshot: a live Snapshot pins its phase, so
// churn + Compact must not disturb its reads; after Release the next
// Compact reclaims the pinned versions.
func TestCompactPreservesPinnedSnapshot(t *testing.T) {
	const keySpace = 128
	tr := New()
	rng := workload.NewRNG(7)
	for i := 0; i < keySpace/2; i++ {
		tr.Insert(rng.Intn(keySpace))
	}
	snap := tr.Snapshot()
	want := snap.Keys()

	for i := 0; i < 10_000; i++ {
		k := rng.Intn(keySpace)
		if rng.Intn(2) == 0 {
			tr.Insert(k)
		} else {
			tr.Delete(k)
		}
	}
	tr.Compact() // horizon pinned at snap's phase
	got := snap.Keys()
	if len(got) != len(want) {
		t.Fatalf("snapshot changed under Compact: %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("snapshot changed under Compact at %d: %d != %d", i, got[i], want[i])
		}
	}
	pinned := tr.VersionGraphSize()

	snap.Release()
	tr.Compact()
	reclaimed := tr.VersionGraphSize()
	if reclaimed >= pinned {
		t.Fatalf("Release + Compact did not reclaim: %d -> %d nodes", pinned, reclaimed)
	}
	if limit := 4*tr.Len() + 16; reclaimed > limit {
		t.Fatalf("post-release graph = %d nodes for %d keys (limit %d)", reclaimed, tr.Len(), limit)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestScansConcurrentWithPruning is the reclamation race test: updaters
// (whose point-op histories must stay linearizable), scanners (whose
// results must stay well-formed), a snapshotter (stable reads, released
// promptly) and a continuously spinning pruner all run together. Run
// with -race in CI.
func TestScansConcurrentWithPruning(t *testing.T) {
	const (
		workers  = 4
		opsEach  = 10 // <= 64 ops per key across workers (lincheck cap)
		rounds   = 30
		keySpace = 64
	)
	// Hot keys are odd; the prefill uses only even keys so the recorded
	// histories start from the absent state lincheck assumes.
	hotKeys := []int64{3, 17, 31, 45, 59}
	for round := 0; round < rounds; round++ {
		tr := New()
		rng0 := workload.NewRNG(uint64(round) + 1)
		for i := 0; i < keySpace/2; i++ {
			tr.Insert(rng0.Intn(keySpace/2) * 2)
		}

		var stop atomic.Bool
		var wg sync.WaitGroup
		errc := make(chan error, 8)

		// Pruner: compact as fast as possible.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				tr.Compact()
			}
		}()
		// Scanners: results sorted, in bounds, no duplicates.
		for s := 0; s < 2; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				rng := workload.NewRNG(uint64(round*31+s) + 77)
				for !stop.Load() {
					a := rng.Intn(keySpace)
					b := a + rng.Intn(keySpace/2+1)
					prev := int64(-1)
					bad := false
					tr.RangeScanFunc(a, b, func(k int64) bool {
						if k < a || k > b || k <= prev {
							bad = true
							return false
						}
						prev = k
						return true
					})
					if bad {
						select {
						case errc <- fmt.Errorf("malformed scan of [%d,%d]", a, b):
						default:
						}
						return
					}
				}
			}(s)
		}
		// Snapshotter: stable double-read, then release.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				snap := tr.Snapshot()
				a, b := snap.Len(), snap.Len()
				snap.Release()
				if a != b {
					select {
					case errc <- fmt.Errorf("snapshot unstable: %d then %d keys", a, b):
					default:
					}
					return
				}
			}
		}()

		// Updaters with recorded histories on hot keys. They finish after
		// a fixed op count; the looping goroutines above then get stopped.
		histories := make([][]lincheck.Event, workers)
		start := make(chan struct{})
		var updaters sync.WaitGroup
		for w := 0; w < workers; w++ {
			updaters.Add(1)
			go func(w int) {
				defer updaters.Done()
				rng := workload.NewRNG(uint64(round*workers+w) + 1313)
				<-start
				for i := 0; i < opsEach; i++ {
					k := hotKeys[rng.Intn(int64(len(hotKeys)))]
					kind := lincheck.OpKind(rng.Intn(3))
					inv := time.Now().UnixNano()
					var ret bool
					switch kind {
					case lincheck.Insert:
						ret = tr.Insert(k)
					case lincheck.Delete:
						ret = tr.Delete(k)
					default:
						ret = tr.Find(k)
					}
					histories[w] = append(histories[w], lincheck.Event{
						Kind: kind, Key: k, Ret: ret,
						Inv: inv, Res: time.Now().UnixNano(),
					})
				}
			}(w)
		}
		close(start)
		updaters.Wait()
		stop.Store(true)
		wg.Wait()
		select {
		case err := <-errc:
			t.Fatalf("round %d: %v", round, err)
		default:
		}

		var all []lincheck.Event
		for _, h := range histories {
			all = append(all, h...)
		}
		if err := lincheck.Check(all); err != nil {
			t.Fatalf("round %d: point ops not linearizable under pruning: %v", round, err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestAllocBudgets pins the flat layout's allocation counts (DESIGN.md
// §10.1): nodes and infos are plain allocations, so every budget is an
// exact count of the objects an operation creates.
func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by the race detector")
	}
	tr := New()
	for i := int64(0); i < 1024; i += 2 {
		tr.Insert(i)
	}
	// Contains on a quiescent tree is allocation-free.
	if got := testing.AllocsPerRun(200, func() { tr.Find(511) }); got != 0 {
		t.Errorf("Contains allocs/op = %v, want 0", got)
	}
	// Insert with the flat layout is 3 nodes + 1 info.
	k := int64(100000)
	if got := testing.AllocsPerRun(200, func() { tr.Insert(k); k++ }); got > 4 {
		t.Errorf("Insert allocs/op = %v, want <= 4 (3 nodes + 1 info)", got)
	}
	// Delete is 1 sibling copy + 1 info.
	d := int64(100000)
	if got := testing.AllocsPerRun(200, func() { tr.Delete(d); d++ }); got > 2 {
		t.Errorf("Delete allocs/op = %v, want <= 2 (1 node + 1 info)", got)
	}
	// A steady-state churn pair (Delete then re-Insert of a present key)
	// is the two budgets added: 4 nodes + 2 infos.
	c := int64(0)
	if got := testing.AllocsPerRun(300, func() { tr.Delete(c % 1024); tr.Insert(c % 1024); c += 2 }); got > 6 {
		t.Errorf("churn pair allocs/op = %v, want <= 6 (4 nodes + 2 infos)", got)
	}
}

// TestModelChurnWithCompact interleaves thousands of updates with Compact
// passes against a model oracle: a cut that dropped a version some
// traversal still needed shows up as a wrong answer or a broken invariant.
func TestModelChurnWithCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := New()
	model := make(map[int64]bool)
	iters := 20000
	if testing.Short() {
		iters = 4000
	}
	for i := 0; i < iters; i++ {
		k := int64(rng.Intn(200))
		switch rng.Intn(3) {
		case 0:
			if got, want := tr.Insert(k), !model[k]; got != want {
				t.Fatalf("op %d: Insert(%d) = %v, want %v", i, k, got, want)
			}
			model[k] = true
		case 1:
			if got, want := tr.Delete(k), model[k]; got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", i, k, got, want)
			}
			delete(model, k)
		default:
			if got, want := tr.Find(k), model[k]; got != want {
				t.Fatalf("op %d: Find(%d) = %v, want %v", i, k, got, want)
			}
		}
		if i%256 == 255 {
			tr.Compact()
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := make([]int64, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := tr.Keys()
	if len(got) != len(want) {
		t.Fatalf("Keys() = %d keys, model has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Keys()[%d] = %d, model %d", i, got[i], want[i])
		}
	}
}

// TestConcurrentChurnWithCompact races updates, snapshot readers and a
// spinning compactor — the stress counterpart of the reclaim tests.
// mustReadChild turns any horizon violation by the pruner into a panic,
// failing the round loudly.
func TestConcurrentChurnWithCompact(t *testing.T) {
	tr := New()
	iters := 3000
	if testing.Short() {
		iters = 500
	}
	stop := make(chan struct{})
	var compWG sync.WaitGroup
	compWG.Add(1)
	go func() {
		defer compWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tr.Compact()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				k := int64(rng.Intn(128))
				switch rng.Intn(3) {
				case 0:
					tr.Insert(k)
				case 1:
					tr.Delete(k)
				default:
					tr.Find(k)
				}
			}
		}(w)
	}
	// Registered readers throughout: each snapshot's view must stay
	// sorted and duplicate-free however hard the compactor prunes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/30; i++ {
			s := tr.Snapshot()
			keys := s.Keys()
			for j := 1; j < len(keys); j++ {
				if keys[j-1] >= keys[j] {
					t.Errorf("snapshot keys out of order: %d before %d", keys[j-1], keys[j])
					break
				}
			}
			s.Release()
		}
	}()
	wg.Wait()
	close(stop)
	compWG.Wait()
	tr.Compact()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
