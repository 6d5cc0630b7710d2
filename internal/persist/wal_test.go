package persist

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestWALSyncErrorIsSticky closes the segment file underneath an open WAL
// so the next flush or fsync fails. From then on every append must return
// an error, in both modes, and the durable watermark must stay where the
// last good fsync left it: a later fsync that happens to succeed proves
// nothing about the pages the failed one covered.
func TestWALSyncErrorIsSticky(t *testing.T) {
	for _, mode := range []struct {
		name      string
		syncEvery time.Duration
	}{
		{"group-commit", 0},
		{"windowed", time.Millisecond},
	} {
		t.Run(mode.name, func(t *testing.T) {
			l, err := openWAL(t.TempDir(), 1, mode.syncEvery)
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(1); i <= 3; i++ {
				if err := l.append([]byte{byte(i)}, i); err != nil {
					t.Fatalf("append %d before the fault: %v", i, err)
				}
			}
			if err := l.syncNow(); err != nil {
				t.Fatal(err)
			}
			synced, phase := l.synced.Load(), l.syncedPhase.Load()
			if synced != 3 || phase != 3 {
				t.Fatalf("watermark before the fault = %d groups / phase %d, want 3 / 3", synced, phase)
			}

			l.syncMu.Lock() // no sync may run while the file goes away
			l.f.Close()
			l.syncMu.Unlock()

			// A group-commit append fails its own sync at once. A windowed
			// append is acked into the window before any sync, so poll
			// until the ticker's sync has hit the fault.
			var stored error
			deadline := time.Now().Add(5 * time.Second)
			for stored == nil {
				stored = l.append([]byte{4}, 4)
				if stored == nil && mode.syncEvery == 0 {
					t.Fatal("group-commit append acked over a failed sync")
				}
				if time.Now().After(deadline) {
					t.Fatal("appends still succeed 5s after the fault")
				}
				time.Sleep(time.Millisecond)
			}

			// Concurrent appends after the fault: none may be acked, and
			// a follower queued behind the failed leader must not sync
			// on its own.
			var wg sync.WaitGroup
			errs := make([]error, 8)
			for w := range errs {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					errs[w] = l.append([]byte{byte(10 + w)}, uint64(10+w))
				}(w)
			}
			wg.Wait()
			for w, err := range errs {
				if !errors.Is(err, stored) {
					t.Errorf("append %d after the fault = %v, want the stored error %v", w, err, stored)
				}
			}
			if err := l.syncNow(); !errors.Is(err, stored) {
				t.Errorf("syncNow after the fault = %v, want the stored error", err)
			}
			// A rotation must not give appends a healthy segment to land
			// in behind the lost groups.
			if _, err := l.rotate(); !errors.Is(err, stored) {
				t.Errorf("rotate after the fault = %v, want the stored error", err)
			}
			if err := l.append([]byte{20}, 20); !errors.Is(err, stored) {
				t.Errorf("append after the rotation = %v, want the stored error", err)
			}
			if s, p := l.synced.Load(), l.syncedPhase.Load(); s != synced || p != phase {
				t.Errorf("watermark moved after the fault: %d groups / phase %d, want %d / %d", s, p, synced, phase)
			}
			if err := l.close(); err == nil {
				t.Error("close after the fault reported success")
			}
		})
	}
}
