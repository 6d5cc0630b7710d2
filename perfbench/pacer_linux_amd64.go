package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps the open-loop sender until its next arrival is due.
// time.Sleep rounds short sleeps up to about a millisecond on Linux,
// which would make the generator, not the server, set open-loop
// latency. A timerfd wakes within microseconds, and reading it parks
// only the goroutine (through the runtime's poller), not a thread or a P.
type pacer struct {
	f  *os.File
	fd uintptr
	b  [8]byte
}

const (
	sysTimerfdCreate  = 283
	sysTimerfdSettime = 286
	clockMonotonic    = 1
)

type itimerspec struct{ interval, value syscall.Timespec }

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(sysTimerfdCreate, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

func (p *pacer) sleep(d time.Duration) error {
	its := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(sysTimerfdSettime, p.fd, 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := p.f.Read(p.b[:])
	return err
}

func (p *pacer) close() error { return p.f.Close() }
