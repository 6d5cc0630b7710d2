//go:build !(linux && amd64)

package main

import "time"

// pacer falls back to time.Sleep where no timerfd is wired up; its
// coarser wake-ups show in driver.late_p99_us.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (p *pacer) sleep(d time.Duration) error { time.Sleep(d); return nil }

func (p *pacer) close() error { return nil }
