package lincheck

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func ev(k OpKind, key int64, ret bool, inv, res int64) Event {
	return Event{Kind: k, Key: key, Ret: ret, Inv: inv, Res: res}
}

func TestSequentialLegal(t *testing.T) {
	h := []Event{
		ev(Insert, 1, true, 0, 1),
		ev(Find, 1, true, 2, 3),
		ev(Delete, 1, true, 4, 5),
		ev(Find, 1, false, 6, 7),
		ev(Delete, 1, false, 8, 9),
		ev(Insert, 1, true, 10, 11),
	}
	if err := Check(h); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialIllegal(t *testing.T) {
	cases := [][]Event{
		{ev(Find, 1, true, 0, 1)},                              // found before any insert
		{ev(Insert, 1, true, 0, 1), ev(Insert, 1, true, 2, 3)}, // double insert both true
		{ev(Delete, 1, true, 0, 1)},                            // delete of absent key true
		{ev(Insert, 1, false, 0, 1)},                           // first insert false
		{ev(Insert, 1, true, 0, 1), ev(Delete, 1, true, 2, 3), ev(Find, 1, true, 4, 5)},
	}
	for i, h := range cases {
		if err := Check(h); err == nil {
			t.Errorf("case %d: illegal history accepted", i)
		}
	}
}

func TestOverlapReordering(t *testing.T) {
	// Find(1)=true overlaps Insert(1)=true: legal because the insert may
	// linearize first within the overlap.
	h := []Event{
		ev(Insert, 1, true, 0, 10),
		ev(Find, 1, true, 5, 6),
	}
	if err := Check(h); err != nil {
		t.Fatal(err)
	}
	// But if the find strictly precedes the insert, it must return false.
	h2 := []Event{
		ev(Find, 1, true, 0, 1),
		ev(Insert, 1, true, 2, 3),
	}
	if err := Check(h2); err == nil {
		t.Fatal("real-time-ordered illegal history accepted")
	}
}

func TestConcurrentInsertsOneWins(t *testing.T) {
	// Two overlapping inserts: exactly one may return true.
	legal := []Event{
		ev(Insert, 1, true, 0, 10),
		ev(Insert, 1, false, 1, 9),
	}
	if err := Check(legal); err != nil {
		t.Fatal(err)
	}
	illegal := []Event{
		ev(Insert, 1, true, 0, 10),
		ev(Insert, 1, true, 1, 9),
	}
	if err := Check(illegal); err == nil {
		t.Fatal("two winning overlapping inserts accepted")
	}
}

func TestKeysIndependent(t *testing.T) {
	h := []Event{
		ev(Insert, 1, true, 0, 1),
		ev(Insert, 2, true, 0, 1),
		ev(Find, 1, true, 2, 3),
		ev(Find, 2, true, 2, 3),
		ev(Find, 3, false, 2, 3),
	}
	if err := Check(h); err != nil {
		t.Fatal(err)
	}
}

func TestTooManyOpsRejected(t *testing.T) {
	var h []Event
	for i := 0; i < MaxOpsPerKey+1; i++ {
		h = append(h, ev(Find, 1, false, int64(i), int64(i)))
	}
	if err := Check(h); err == nil {
		t.Fatal("oversized per-key history accepted")
	}
}

func TestBadTimestamps(t *testing.T) {
	if err := Check([]Event{ev(Find, 1, false, 5, 4)}); err == nil {
		t.Fatal("response-before-invocation accepted")
	}
}

// TestRealHistoryUnderCompact is the reclamation round of the
// linearizability wall: a compactor spins so that version chains are cut
// and decided descriptors retired underneath the recorded operations. A
// cut that removed a version some operation still needed would surface
// as a non-linearizable history.
func TestRealHistoryUnderCompact(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	for round := 0; round < 8; round++ {
		tr := core.New()
		stop := make(chan struct{})
		var compWG sync.WaitGroup
		compWG.Add(1)
		go func() {
			defer compWG.Done()
			for { // always completes at least one pass, even on a short round
				tr.Compact()
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
		base := int64(round * 1000)
		var mu sync.Mutex
		var history []Event
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*striding + w)))
				local := make([]Event, 0, 64)
				for i := 0; i < 7; i++ { // keep per-key histories small
					k := base + int64(rng.Intn(4))
					kind := OpKind(rng.Intn(3))
					inv := time.Now().UnixNano()
					var ret bool
					switch kind {
					case Insert:
						ret = tr.Insert(k)
					case Delete:
						ret = tr.Delete(k)
					case Find:
						ret = tr.Find(k)
					}
					res := time.Now().UnixNano()
					local = append(local, Event{Kind: kind, Key: k, Ret: ret, Inv: inv, Res: res})
				}
				mu.Lock()
				history = append(history, local...)
				mu.Unlock()
			}(w)
		}
		wg.Wait()
		close(stop)
		compWG.Wait()
		if err := Check(history); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if st := tr.Stats(); st.Compactions == 0 {
			t.Fatalf("round %d: compactor never ran", round)
		}
	}
}

// striding decorrelates the compactor rounds' seeds from the plain rounds'.
const striding = 7919

// TestRealHistoryFromCoreTree records a genuine concurrent history from
// the PNB-BST and verifies it linearizable — an end-to-end check of both
// the tree and the checker. Keys are drawn from a window that slides per
// round so per-key histories stay under the checker's op limit.
func TestRealHistoryFromCoreTree(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	for round := 0; round < 8; round++ {
		tr := core.New()
		base := int64(round * 1000)
		var mu sync.Mutex
		var history []Event
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*100 + w)))
				local := make([]Event, 0, 64)
				for i := 0; i < 7; i++ { // keep per-key histories small
					k := base + int64(rng.Intn(4))
					kind := OpKind(rng.Intn(3))
					inv := time.Now().UnixNano()
					var ret bool
					switch kind {
					case Insert:
						ret = tr.Insert(k)
					case Delete:
						ret = tr.Delete(k)
					case Find:
						ret = tr.Find(k)
					}
					res := time.Now().UnixNano()
					local = append(local, Event{Kind: kind, Key: k, Ret: ret, Inv: inv, Res: res})
				}
				mu.Lock()
				history = append(history, local...)
				mu.Unlock()
			}(w)
		}
		wg.Wait()
		if err := Check(history); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}
