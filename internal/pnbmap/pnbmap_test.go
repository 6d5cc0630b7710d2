package pnbmap

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestEmptyMap(t *testing.T) {
	m := New[string]()
	if _, ok := m.Get(1); ok {
		t.Fatal("empty map has key")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d", m.Len())
	}
	if m.Delete(1) {
		t.Fatal("delete on empty map true")
	}
}

func TestPutGetReplaceDelete(t *testing.T) {
	m := New[string]()
	if m.Put(1, "a") {
		t.Fatal("first Put reported replace")
	}
	if v, ok := m.Get(1); !ok || v != "a" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	if !m.Put(1, "b") {
		t.Fatal("second Put did not report replace")
	}
	if v, _ := m.Get(1); v != "b" {
		t.Fatalf("Get after replace = %q", v)
	}
	if !m.Delete(1) || m.Delete(1) {
		t.Fatal("delete semantics")
	}
	if _, ok := m.Get(1); ok {
		t.Fatal("key survives delete")
	}
}

func TestReplacePreservesOldVersions(t *testing.T) {
	m := New[int]()
	m.Put(10, 100)
	snap1 := m.Snapshot()
	m.Put(10, 200) // replace in a later phase
	snap2 := m.Snapshot()
	m.Put(10, 300)

	if v, _ := snap1.Get(10); v != 100 {
		t.Fatalf("snap1 value = %d, want 100", v)
	}
	if v, _ := snap2.Get(10); v != 200 {
		t.Fatalf("snap2 value = %d, want 200", v)
	}
	if v, _ := m.Get(10); v != 300 {
		t.Fatalf("live value = %d, want 300", v)
	}
}

func TestSequentialVsMapOracle(t *testing.T) {
	m := New[int64]()
	oracle := map[int64]int64{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		k := int64(rng.Intn(300))
		switch rng.Intn(4) {
		case 0, 1:
			v := rng.Int63n(1000)
			_, had := oracle[k]
			if m.Put(k, v) != had {
				t.Fatalf("Put(%d) replace flag diverged at %d", k, i)
			}
			oracle[k] = v
		case 2:
			_, had := oracle[k]
			if m.Delete(k) != had {
				t.Fatalf("Delete(%d) diverged at %d", k, i)
			}
			delete(oracle, k)
		case 3:
			v, ok := m.Get(k)
			want, had := oracle[k]
			if ok != had || (ok && v != want) {
				t.Fatalf("Get(%d) = %d,%v want %d,%v", k, v, ok, want, had)
			}
		}
	}
	if m.Len() != len(oracle) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(oracle))
	}
	for _, e := range m.RangeScan(0, 300) {
		if oracle[e.Key] != e.Val {
			t.Fatalf("scan entry %d=%d, oracle %d", e.Key, e.Val, oracle[e.Key])
		}
	}
}

func TestRangeScanSortedEntries(t *testing.T) {
	m := New[string]()
	for i := int64(0); i < 100; i += 10 {
		m.Put(i, fmt.Sprint(i))
	}
	es := m.RangeScan(15, 75)
	want := []int64{20, 30, 40, 50, 60, 70}
	if len(es) != len(want) {
		t.Fatalf("scan = %v", es)
	}
	for i, e := range es {
		if e.Key != want[i] || e.Val != fmt.Sprint(want[i]) {
			t.Fatalf("scan[%d] = %+v", i, e)
		}
	}
	n := 0
	m.RangeScanFunc(0, 99, func(int64, string) bool { n++; return n < 4 })
	if n != 4 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestQuickMapOracle(t *testing.T) {
	f := func(raw []byte) bool {
		m := New[byte]()
		oracle := map[int64]byte{}
		for i := 0; i+2 < len(raw); i += 3 {
			k := int64(raw[i+1] % 48)
			switch raw[i] % 4 {
			case 0, 1:
				_, had := oracle[k]
				if m.Put(k, raw[i+2]) != had {
					return false
				}
				oracle[k] = raw[i+2]
			case 2:
				_, had := oracle[k]
				if m.Delete(k) != had {
					return false
				}
				delete(oracle, k)
			case 3:
				v, ok := m.Get(k)
				want, had := oracle[k]
				if ok != had || (ok && v != want) {
					return false
				}
			}
		}
		return m.Len() == len(oracle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentDisjointMap(t *testing.T) {
	m := New[int64]()
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const span = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w * span)
			oracle := map[int64]int64{}
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 4000; i++ {
				k := base + int64(rng.Intn(span))
				switch rng.Intn(4) {
				case 0, 1:
					v := rng.Int63()
					_, had := oracle[k]
					if m.Put(k, v) != had {
						t.Errorf("w%d Put(%d) diverged", w, k)
						return
					}
					oracle[k] = v
				case 2:
					_, had := oracle[k]
					if m.Delete(k) != had {
						t.Errorf("w%d Delete(%d) diverged", w, k)
						return
					}
					delete(oracle, k)
				case 3:
					v, ok := m.Get(k)
					want, had := oracle[k]
					if ok != had || (ok && v != want) {
						t.Errorf("w%d Get(%d) diverged", w, k)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentReplaceMonotone: writers only ever replace a key's value
// with a larger one, so every read anywhere (live or snapshot-ordered)
// must see values that never decrease per key over wall-clock time.
// Each key has one writer: with a shared counter, a writer preempted
// between drawing its value and its Put could legitimately store an
// older value over a newer one.
func TestConcurrentReplaceMonotone(t *testing.T) {
	m := New[int64]()
	const keys, writers = 16, 4
	for k := int64(0); k < keys; k++ {
		m.Put(k, 0)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := int64(0); w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := int64(1); !stop.Load(); v++ {
				m.Put(w+writers*(v%(keys/writers)), v) // keys ≡ w mod writers
			}
		}()
	}
	last := make([]int64, keys)
	for i := 0; i < 20000; i++ {
		k := int64(i % keys)
		if v, ok := m.Get(k); ok {
			if v < last[k] {
				t.Fatalf("value of key %d went backwards: %d then %d", k, last[k], v)
			}
			last[k] = v
		}
	}
	stop.Store(true)
	wg.Wait()
}

func TestSnapshotScanConsistentUnderChurn(t *testing.T) {
	// Writers keep the invariant "value == key * multiplier" where the
	// multiplier changes atomically per full rewrite pass... weaker but
	// checkable: a snapshot's entries were all written; each value is
	// either k*2 or k*3 consistently per key (no torn values possible
	// since leaves are immutable).
	m := New[int64]()
	const n = 200
	for k := int64(0); k < n; k++ {
		m.Put(k, k*2)
	}
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			for k := int64(0); k < n; k++ {
				m.Put(k, k*3)
			}
			for k := int64(0); k < n; k++ {
				m.Put(k, k*2)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		snap := m.Snapshot()
		bad := 0
		snap.Range(0, n-1, func(k int64, v int64) bool {
			if v != k*2 && v != k*3 {
				bad++
			}
			return true
		})
		if bad > 0 {
			t.Fatalf("snapshot saw %d torn values", bad)
		}
		// And re-reading the snapshot yields identical values.
		var first []int64
		snap.Range(0, n-1, func(_, v int64) bool { first = append(first, v); return true })
		var second []int64
		snap.Range(0, n-1, func(_, v int64) bool { second = append(second, v); return true })
		for j := range first {
			if first[j] != second[j] {
				t.Fatalf("snapshot value changed between reads at %d", j)
			}
		}
	}
	stop.Store(true)
	<-done
}

func TestKeysAndBoundary(t *testing.T) {
	m := New[struct{}]()
	m.Put(MaxKey, struct{}{})
	m.Put(MinKey, struct{}{})
	keys := m.Keys()
	if len(keys) != 2 || keys[0] != MinKey || keys[1] != MaxKey {
		t.Fatalf("Keys = %v", keys)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("sentinel key accepted")
		}
	}()
	m.Put(MaxKey+1, struct{}{})
}
