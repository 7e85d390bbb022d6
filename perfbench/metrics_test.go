package main

import (
	"runtime"
	"testing"
	"time"
)

// TestThreadCPUResolution checks that the thread CPU clock sees a
// millisecond of work: set-ups that short are timed with it.
func TestThreadCPUResolution(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	for end := time.Now().Add(time.Millisecond); time.Now().Before(end); {
		spin(100)
	}
	if d := threadCPU() - t0; d <= 0 || d > time.Second {
		t.Errorf("1 ms of work measured as %v of thread CPU time", d)
	}
}
