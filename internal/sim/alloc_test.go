//go:build !race

package sim

import (
	"testing"
	"time"
)

// TestAllocsSchedulerSteadyState guards the virtual scheduler's host hot
// path: once its ready queue and timer heap have grown to the working set,
// a process switch allocates nothing. The race detector's instrumentation
// allocates, so this builds without it.
func TestAllocsSchedulerSteadyState(t *testing.T) {
	rt := NewVirtual()
	var allocs float64
	done := false
	rt.Go("peer", func(p Proc) {
		for !done {
			p.Sleep(time.Microsecond)
		}
	})
	rt.Go("measured", func(p Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(time.Microsecond)
		}
		allocs = testing.AllocsPerRun(1000, func() { p.Sleep(time.Microsecond) })
		done = true
	})
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("a process switch allocates %v times, want 0", allocs)
	}
}
