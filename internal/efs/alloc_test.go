//go:build !race

package efs

import (
	"testing"

	"bridge/internal/sim"
)

// The cached block path is the simulator's host hot path: these guards
// keep it from allocating again. The race detector's instrumentation
// allocates, so they build without it; CI runs them in a separate step.

func TestAllocsCachedBlockPath(t *testing.T) {
	d := fastDisk(256)
	run(t, func(p sim.Proc) {
		fs, err := Format(p, d, Options{})
		if err != nil {
			t.Fatalf("Format: %v", err)
		}
		if err := fs.Create(p, 4); err != nil {
			t.Fatalf("Create: %v", err)
		}
		const n = 6
		for i := 0; i < n; i++ {
			if _, err := fs.WriteBlock(p, 4, uint32(i), fill(byte(i), 300), -1); err != nil {
				t.Fatalf("WriteBlock %d: %v", i, err)
			}
		}
		bb, i, err := fs.findEntry(p, 4)
		if err != nil {
			t.Fatalf("findEntry: %v", err)
		}
		e := &bb.b.Entries[i]

		// Forget the learned locations so every lookup walks the chain
		// from the head over cached blocks.
		for k := range fs.loc {
			delete(fs.loc, k)
		}
		steps := fs.m.walkSteps.Value()
		walk := testing.AllocsPerRun(100, func() {
			if _, _, err := fs.findBlock(p, e, 4, 2, nilAddr); err != nil {
				t.Fatalf("findBlock: %v", err)
			}
		})
		if fs.m.walkSteps.Value() == steps {
			t.Fatal("findBlock did not walk")
		}
		if walk != 0 {
			t.Errorf("cached walk allocates %v times, want 0", walk)
		}

		read := testing.AllocsPerRun(100, func() {
			if _, _, err := fs.ReadBlock(p, 4, 3, -1); err != nil {
				t.Fatalf("ReadBlock: %v", err)
			}
		})
		if read != 1 {
			t.Errorf("cached ReadBlock allocates %v times, want 1 (its payload copy)", read)
		}
	})
}

func TestAllocsCachePutSteadyState(t *testing.T) {
	const capacity = 8
	c := newBlockCache(capacity)
	imgs := make([][]byte, 4*capacity)
	for a := range imgs {
		imgs[a] = make([]byte, BlockSize)
		encodeHeader(imgs[a], blockHeader{FileID: 1, BlockNum: uint32(a), Flags: flagUsed})
	}
	next := 0
	put := func() {
		c.put(int32(next), imgs[next])
		next = (next + 1) % len(imgs)
	}
	for i := 0; i < 2*len(imgs); i++ {
		put()
	}
	if allocs := testing.AllocsPerRun(1000, put); allocs != 0 {
		t.Errorf("steady-state put allocates %v times, want 0", allocs)
	}
}
