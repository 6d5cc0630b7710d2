package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// walMagic opens every segment's header frame.
var walMagic = []byte("PNBWAL1\n")

// wal is a segmented, group-fsynced write-ahead log of record frames.
//
// Appends are concurrent: each buffers its frame under a short mutex and
// then — in durable mode (syncEvery == 0) — waits for its group's fsync.
// The fsync is leader-based: the first waiter to take syncMu flushes and
// syncs everything buffered so far and publishes the durable watermark;
// waiters that queued behind it find their append already covered and
// return without a second fsync. One fsync absorbs a whole burst, which
// is what keeps ack-after-fsync viable under pipelined load.
//
// With syncEvery > 0 appends return after buffering and a background
// ticker fsyncs every interval: a crash loses at most that window of
// acknowledged updates (the relaxed mode E17 measures against).
//
// Failures are sticky (fail-stop): the first flush or fsync error is
// stored, and from then on every append, sync and rotation returns it and
// the durable watermark never moves again. Linux reports a writeback
// error to one fsync caller and then clears it, so a later fsync that
// succeeds proves nothing about the pages the failed one covered.
type wal struct {
	dir       string
	syncEvery time.Duration

	mu       sync.Mutex // guards f, w, seg, written, maxPhase, scratch
	f        *os.File
	w        *bufio.Writer
	seg      uint64
	written  uint64 // append groups buffered so far, monotone
	maxPhase uint64 // highest commit phase among buffered appends, monotone
	scratch  []byte
	closed   bool

	syncMu      sync.Mutex            // held by the fsync leader, rotation, and close
	failed      atomic.Pointer[error] // first flush/fsync error, stored once under syncMu
	synced      atomic.Uint64         // append groups known durable
	syncedPhase atomic.Uint64         // highest commit phase known durable (the phase watermark)
	lastEmitNS  int64                 // wall time of the last walsync flight-record emit (under syncMu)

	appends atomic.Uint64
	syncs   atomic.Uint64

	done chan struct{}
	wg   sync.WaitGroup
}

func segPath(dir string, seg uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", seg))
}

// createSegment creates the segment file, writes its header frame, and
// makes both the file and the directory entry durable before returning,
// so a later recovery can never see the previous segment without its
// successor's creation being decided one way or the other.
func createSegment(dir string, seg uint64) (*os.File, *bufio.Writer, error) {
	f, err := os.OpenFile(segPath(dir, seg), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, err
	}
	hdr := binary.AppendUvarint(append([]byte(nil), walMagic...), seg)
	if _, err := f.Write(appendFrame(nil, hdr)); err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, nil, err
	}
	return f, bufio.NewWriterSize(f, 1<<16), nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// openWAL starts a fresh segment seg for appends. Recovery never appends
// to an old segment — its tail may be torn — so the next free index is
// always a new file (Image.NextSeg).
func openWAL(dir string, seg uint64, syncEvery time.Duration) (*wal, error) {
	f, w, err := createSegment(dir, seg)
	if err != nil {
		return nil, err
	}
	l := &wal{dir: dir, syncEvery: syncEvery, f: f, w: w, seg: seg, done: make(chan struct{})}
	if syncEvery > 0 {
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			tick := time.NewTicker(syncEvery)
			defer tick.Stop()
			for {
				select {
				case <-l.done:
					return
				case <-tick.C:
					l.syncNow() // a failure is stored; the next append returns it
				}
			}
		}()
	}
	return l, nil
}

var errWALClosed = errors.New("persist: append to a closed WAL")

// append makes one record group durable (or durable-within-the-sync-
// window) as a single frame: replay applies a group all-or-nothing, so a
// torn tail can never expose half an MBATCH. maxPhase is the highest
// commit phase of any record in the group; the fsync that covers the
// group advances the durable phase watermark at least that far.
func (l *wal) append(group []byte, maxPhase uint64) error {
	if err := l.failure(); err != nil {
		return err
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errWALClosed
	}
	l.scratch = appendFrame(l.scratch[:0], group)
	_, err := l.w.Write(l.scratch)
	l.written++
	n := l.written
	if maxPhase > l.maxPhase {
		l.maxPhase = maxPhase
	}
	l.mu.Unlock()
	if err != nil {
		return err
	}
	l.appends.Add(1)
	if l.syncEvery == 0 {
		return l.waitDurable(n)
	}
	return nil
}

// waitDurable blocks until append group n is fsynced, becoming the
// group's sync leader if none has covered it yet.
func (l *wal) waitDurable(n uint64) error {
	if l.synced.Load() >= n {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.synced.Load() >= n {
		return nil // a leader synced past us while we queued
	}
	return l.syncLocked()
}

// failure returns the stored sticky error, or nil while the WAL is
// healthy.
func (l *wal) failure() error {
	if p := l.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// fail records err as the WAL's sticky failure unless an earlier one is
// already stored, and returns the stored error. Caller holds syncMu.
func (l *wal) fail(err error) error {
	if prev := l.failure(); prev != nil {
		return prev
	}
	l.failed.Store(&err)
	return err
}

func (l *wal) syncNow() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.syncLocked()
}

// syncLocked flushes and fsyncs everything buffered so far. Caller holds
// syncMu; the flush takes mu briefly but the fsync itself runs with
// appends flowing — they buffer behind the watermark this sync will
// publish. f cannot be swapped mid-sync: rotation also holds syncMu.
func (l *wal) syncLocked() error {
	if err := l.failure(); err != nil {
		return err
	}
	l.mu.Lock()
	target := l.written
	phase := l.maxPhase
	seg := l.seg
	err := l.w.Flush()
	f := l.f
	l.mu.Unlock()
	if err != nil {
		return l.fail(err)
	}
	if err := f.Sync(); err != nil {
		return l.fail(err)
	}
	l.syncs.Add(1)
	if l.synced.Load() < target {
		l.synced.Store(target) // only syncMu holders store
	}
	if l.syncedPhase.Load() < phase {
		l.syncedPhase.Store(phase)
	}
	l.emitSync(obs.KindSync, phase, int64(target), int64(seg), false)
	return nil
}

// emitSync flight-records a durable-watermark advance. Group-commit
// fsyncs can run thousands of times a second under pipelined load, so
// plain kind=sync emits are rate-limited (walSyncEmitEvery) to keep the
// ring holding minutes of history instead of milliseconds; rotations
// and the final close are rare, load-bearing marks (the soak audits
// rotate phases against checkpoint cuts) and always emit. Caller holds
// syncMu, which serializes lastEmitNS.
func (l *wal) emitSync(kind uint8, phase uint64, groups, seg int64, force bool) {
	if !obs.Enabled() {
		return
	}
	now := time.Now().UnixNano()
	if !force && now-l.lastEmitNS < int64(walSyncEmitEvery) {
		return
	}
	l.lastEmitNS = now
	obs.Emit(obs.EventWALSync, kind, -1, phase, groups, int64(l.syncs.Load()), seg)
}

// walSyncEmitEvery is the minimum spacing between kind=sync walsync
// events.
const walSyncEmitEvery = 25 * time.Millisecond

// rotate seals the current segment and directs subsequent appends to a
// fresh one, returning the new segment's index. Every record already
// appended lands (durably) in a segment below the returned index; the
// checkpointer calls rotate BEFORE opening its snapshot cut, so all
// those records have commit phase <= the cut and the old segments become
// deletable the moment the checkpoint is durable (dropBefore).
func (l *wal) rotate() (uint64, error) {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if err := l.failure(); err != nil {
		return 0, err
	}
	newSeg := l.seg + 1 // stable: seg only changes under syncMu
	f, w, err := createSegment(l.dir, newSeg)
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		f.Close()
		return 0, errWALClosed
	}
	flushErr := l.w.Flush()
	oldF := l.f
	target := l.written
	phase := l.maxPhase
	l.f, l.w, l.seg = f, w, newSeg
	l.mu.Unlock()
	if flushErr != nil {
		oldF.Close()
		return 0, l.fail(flushErr)
	}
	// Appends already race into the new segment; the old one only needs
	// its durability settled before the watermark moves.
	if err := oldF.Sync(); err != nil {
		oldF.Close()
		return 0, l.fail(err)
	}
	if err := oldF.Close(); err != nil {
		return 0, err
	}
	l.synced.Store(target)
	if l.syncedPhase.Load() < phase {
		l.syncedPhase.Store(phase)
	}
	// The rotate event's phase is the highest commit phase sealed below
	// the new segment — by construction <= the checkpoint cut the caller
	// is about to open. The soak audits exactly this relation.
	l.emitSync(obs.KindRotate, phase, int64(target), int64(newSeg), true)
	return newSeg, nil
}

// dropBefore deletes every segment with index < seg — called only after
// a checkpoint whose cut covers all their records is durable.
func (l *wal) dropBefore(seg uint64) error {
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if s < seg {
			if err := os.Remove(segPath(l.dir, s)); err != nil {
				return err
			}
		}
	}
	return syncDir(l.dir)
}

// close flushes and fsyncs the log and closes the segment file; this is
// the SIGTERM drain's last durability step. Appends after close fail.
func (l *wal) close() error {
	close(l.done)
	l.wg.Wait()
	err := l.syncNow()
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	seg := l.seg
	groups := l.written
	l.mu.Unlock()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.emitSync(obs.KindClose, l.syncedPhase.Load(), int64(groups), int64(seg), true)
	return err
}

// listSegments returns the WAL segment indexes present in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, e := range ents {
		var seg uint64
		// Require the name to round-trip: Sscanf does not anchor at end.
		if n, err := fmt.Sscanf(e.Name(), "wal-%d.log", &seg); n == 1 && err == nil &&
			e.Name() == filepath.Base(segPath(dir, seg)) {
			segs = append(segs, seg)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// walReplayStats describes one replay pass over the segments.
type walReplayStats struct {
	Segments  int // segment files read
	Records   int // records decoded (all phases, pre-filter)
	TornTail  int // frames dropped from the newest segment's torn tail
	BadHeader int // newest segment had no valid header (crash mid-create)
}

// replaySegments streams every record of every segment in dir, in log
// order, to fn. A torn frame at the tail of the NEWEST segment is the
// expected residue of a crash and is dropped (counted in TornTail); a
// torn frame anywhere else means a synced segment lost bytes and fails
// the replay.
func replaySegments(dir string, fn func(record) error) (walReplayStats, uint64, error) {
	var st walReplayStats
	segs, err := listSegments(dir)
	if err != nil {
		return st, 0, err
	}
	var maxSeg uint64
	for i, seg := range segs {
		last := i == len(segs)-1
		maxSeg = seg
		if err := replaySegment(dir, seg, last, &st, fn); err != nil {
			return st, 0, err
		}
		st.Segments++
	}
	return st, maxSeg, nil
}

func replaySegment(dir string, seg uint64, last bool, st *walReplayStats, fn func(record) error) error {
	f, err := os.Open(segPath(dir, seg))
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	hdr, err := readFrame(r)
	if err != nil {
		if last && (errors.Is(err, io.EOF) || errors.Is(err, errTornFrame)) {
			// Crash during segment creation: the newest segment may exist
			// with a partial (or missing) header and nothing else.
			st.BadHeader++
			return nil
		}
		return fmt.Errorf("persist: segment %d: reading header: %w", seg, err)
	}
	if !validSegmentHeader(hdr, seg) {
		return fmt.Errorf("persist: segment %d: invalid header", seg)
	}
	for {
		payload, err := readFrame(r)
		if err == nil {
			st.Records += countRecords(payload)
			if derr := decodeRecords(payload, fn); derr != nil {
				return fmt.Errorf("persist: segment %d: %w", seg, derr)
			}
			continue
		}
		if errors.Is(err, io.EOF) {
			return nil
		}
		if errors.Is(err, errTornFrame) {
			if last {
				st.TornTail++
				return nil
			}
			return fmt.Errorf("persist: segment %d: torn frame below the newest segment", seg)
		}
		return fmt.Errorf("persist: segment %d: %w", seg, err)
	}
}

// countRecords counts the records in a decoded frame payload for stats;
// decode errors are reported by the real decode pass.
func countRecords(payload []byte) int {
	n := 0
	decodeRecords(payload, func(record) error { n++; return nil })
	return n
}

func validSegmentHeader(payload []byte, seg uint64) bool {
	if len(payload) < len(walMagic) || string(payload[:len(walMagic)]) != string(walMagic) {
		return false
	}
	got, n := binary.Uvarint(payload[len(walMagic):])
	return n > 0 && got == seg
}
