package efs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"bridge/internal/disk"
	"bridge/internal/fault"
	"bridge/internal/sim"
)

// Block images are shared, read-only, between the device, the cache and the
// journal; these tests pin the two places they are copied and the LRU
// order that decides which blocks stay shared.

func TestReadBlockPayloadIsCallersCopy(t *testing.T) {
	d := fastDisk(256)
	run(t, func(p sim.Proc) {
		fs, err := Format(p, d, Options{JournalBlocks: 32})
		if err != nil {
			t.Fatalf("Format: %v", err)
		}
		if err := fs.Create(p, 3); err != nil {
			t.Fatalf("Create: %v", err)
		}
		for i := 0; i < 2; i++ {
			if _, err := fs.WriteBlock(p, 3, uint32(i), fill(byte(0x10+i), 200), -1); err != nil {
				t.Fatalf("WriteBlock %d: %v", i, err)
			}
		}
		// Block 0's tail fix and this overwrite of block 1 are deferred in
		// the journal. Every payload source — journal image, cached image,
		// track read — must hand the caller a private copy.
		if _, err := fs.WriteBlock(p, 3, 1, fill(0x7f, 300), -1); err != nil {
			t.Fatalf("overwrite: %v", err)
		}
		check := func(fs *FS, bn uint32, want []byte) {
			t.Helper()
			got, _, err := fs.ReadBlock(p, 3, bn, -1)
			if err != nil {
				t.Fatalf("ReadBlock %d: %v", bn, err)
			}
			for i := range got {
				got[i] ^= 0xff
			}
			again, _, err := fs.ReadBlock(p, 3, bn, -1)
			if err != nil {
				t.Fatalf("ReadBlock %d again: %v", bn, err)
			}
			if !bytes.Equal(again, want) {
				t.Errorf("block %d changed after the caller edited its copy", bn)
			}
		}
		check(fs, 0, fill(0x10, 200))
		check(fs, 1, fill(0x7f, 300))
		if err := fs.Sync(p); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		check(fs, 1, fill(0x7f, 300))
		// A cold cache serves the first read from a track read.
		fs2, err := Mount(p, d, Options{})
		if err != nil {
			t.Fatalf("Mount: %v", err)
		}
		check(fs2, 0, fill(0x10, 200))
		if err := cacheCoherent(fs2); err != nil {
			t.Error(err)
		}
	})
}

// writeHook records which blocks a device writes and can fail every write.
type writeHook struct {
	written map[int]bool
	fail    bool
}

var errHookWrite = errors.New("write refused by test hook")

func (h *writeHook) BeforeOp(_ time.Duration, _ string, op disk.Op, bn int) (time.Duration, error) {
	if op != disk.OpWrite {
		return 0, nil
	}
	if h.fail {
		return 0, errHookWrite
	}
	h.written[bn] = true
	return 0, nil
}

// snapshot copies every stored image of d (nil for never-written blocks).
func snapshot(d *disk.Disk) [][]byte {
	out := make([][]byte, d.Config().NumBlocks)
	for bn := range out {
		if b := d.Peek(bn); b != nil {
			out[bn] = bytes.Clone(b)
		}
	}
	return out
}

// unchangedExcept reports the first block whose stored image differs from
// snap although the device never wrote it.
func unchangedExcept(t *testing.T, d *disk.Disk, snap [][]byte, written map[int]bool, what string) {
	t.Helper()
	for bn, want := range snap {
		if !written[bn] && !bytes.Equal(d.Peek(bn), want) {
			t.Errorf("%s changed unwritten block %d on the device", what, bn)
			return
		}
	}
}

// TestJournaledUpdatesLeaveDeviceUntilCommit pins that journal mode edits
// of committed blocks (the tail fix of an append or a run, an overwrite)
// reach the device only through writes: the cache holds the device's own
// images after a track read, so an edit that skipped the clone would
// rewrite committed state before its intent record is durable.
func TestJournaledUpdatesLeaveDeviceUntilCommit(t *testing.T) {
	d := fastDisk(256)
	run(t, func(p sim.Proc) {
		fs, err := Format(p, d, Options{JournalBlocks: 32})
		if err != nil {
			t.Fatalf("Format: %v", err)
		}
		if err := fs.Create(p, 2); err != nil {
			t.Fatalf("Create: %v", err)
		}
		for i := 0; i < 3; i++ {
			if _, err := fs.WriteBlock(p, 2, uint32(i), fill(byte(i+1), 100), -1); err != nil {
				t.Fatalf("WriteBlock %d: %v", i, err)
			}
		}
		if err := fs.Sync(p); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		steps := []struct {
			what string
			op   func(fs *FS) error
		}{
			{"append", func(fs *FS) error {
				_, err := fs.WriteBlock(p, 2, 3, fill(9, 100), -1)
				return err
			}},
			{"append run", func(fs *FS) error {
				_, err := fs.AppendRun(p, 2, 4, [][]byte{fill(10, 100), fill(11, 100)})
				return err
			}},
			{"overwrite", func(fs *FS) error {
				_, err := fs.WriteBlock(p, 2, 1, fill(12, 100), -1)
				return err
			}},
		}
		for _, st := range steps {
			// A cold cache: the blocks the step edits come from a track
			// read, as views of the device's images.
			fs, err := Mount(p, d, Options{})
			if err != nil {
				t.Fatalf("Mount: %v", err)
			}
			for bn := uint32(0); ; bn++ {
				if _, _, err := fs.ReadBlock(p, 2, bn, -1); err != nil {
					break
				}
			}
			h := &writeHook{written: map[int]bool{}}
			d.SetFault(h, "d0")
			snap := snapshot(d)
			if err := st.op(fs); err != nil {
				t.Fatalf("%s: %v", st.what, err)
			}
			unchangedExcept(t, d, snap, h.written, st.what)
			d.SetFault(nil, "")
			if err := fs.Sync(p); err != nil {
				t.Fatalf("Sync after %s: %v", st.what, err)
			}
		}
	})
}

// TestFailedWriteLeavesDeviceUnchanged pins that an edit the device
// refuses to write leaves the device as it was: an overwrite and a flag
// clearing delete of blocks the cache holds as views of the device's
// images must edit private copies.
func TestFailedWriteLeavesDeviceUnchanged(t *testing.T) {
	d := fastDisk(256)
	run(t, func(p sim.Proc) {
		fs, err := Format(p, d, Options{})
		if err != nil {
			t.Fatalf("Format: %v", err)
		}
		if err := fs.Create(p, 2); err != nil {
			t.Fatalf("Create: %v", err)
		}
		for i := 0; i < 3; i++ {
			if _, err := fs.WriteBlock(p, 2, uint32(i), fill(byte(i+1), 100), -1); err != nil {
				t.Fatalf("WriteBlock %d: %v", i, err)
			}
		}
		if err := fs.Sync(p); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		for _, st := range []struct {
			what string
			op   func(fs *FS) error
		}{
			{"overwrite", func(fs *FS) error {
				_, err := fs.WriteBlock(p, 2, 1, fill(12, 100), -1)
				return err
			}},
			{"delete", func(fs *FS) error {
				_, err := fs.Delete(p, 2)
				return err
			}},
		} {
			fs, err := Mount(p, d, Options{})
			if err != nil {
				t.Fatalf("Mount: %v", err)
			}
			if _, _, err := fs.ReadBlock(p, 2, 2, -1); err != nil {
				t.Fatalf("ReadBlock: %v", err)
			}
			d.SetFault(&writeHook{fail: true}, "d0")
			snap := snapshot(d)
			if err := st.op(fs); !errors.Is(err, errHookWrite) {
				t.Fatalf("%s with writes refused: err = %v, want the hook's error", st.what, err)
			}
			unchangedExcept(t, d, snap, nil, st.what)
			d.SetFault(nil, "")
		}
	})
}

func TestBitrotLeavesEarlierTrackReadUnchanged(t *testing.T) {
	d := fastDisk(256)
	run(t, func(p sim.Proc) {
		fs, err := Format(p, d, Options{})
		if err != nil {
			t.Fatalf("Format: %v", err)
		}
		if err := fs.Create(p, 5); err != nil {
			t.Fatalf("Create: %v", err)
		}
		addr, err := fs.WriteBlock(p, 5, 0, fill(0x5a, 500), -1)
		if err != nil {
			t.Fatalf("WriteBlock: %v", err)
		}
		if err := fs.Sync(p); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		first, blocks, err := d.ReadTrack(p, int(addr))
		if err != nil {
			t.Fatalf("ReadTrack: %v", err)
		}
		view := blocks[int(addr)-first]
		before := bytes.Clone(view)

		inj := fault.New(1)
		d.SetFault(inj, "d0")
		inj.Bitrot("d0", int(addr))
		// A fresh mount has a cold cache, so the read hits the medium and
		// the planted rot fires.
		fs2, err := Mount(p, d, Options{})
		if err != nil {
			t.Fatalf("Mount: %v", err)
		}
		if _, _, err := fs2.ReadBlock(p, 5, 0, -1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ReadBlock of rotted block: err = %v, want ErrCorrupt", err)
		}
		if !bytes.Equal(view, before) {
			t.Error("bit rot changed a track image read before it")
		}
		diff := 0
		for i, b := range d.Peek(int(addr)) {
			for x := b ^ before[i]; x != 0; x &= x - 1 {
				diff++
			}
		}
		if diff != 1 {
			t.Errorf("stored image differs from the pre-rot image in %d bits, want 1", diff)
		}
	})
}

// TestBlockCacheMatchesLRUModel drives the cache and a plain slice-based
// LRU with the same random puts, gets and invalidations: contents, eviction
// victims and location keys must match step for step.
func TestBlockCacheMatchesLRUModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, capacity := range []int{1, 2, 5, 16} {
		c := newBlockCache(capacity)
		var model []int32 // front = most recently used
		find := func(addr int32) int {
			for i, a := range model {
				if a == addr {
					return i
				}
			}
			return -1
		}
		img := func(addr int32) []byte {
			b := make([]byte, BlockSize)
			encodeHeader(b, blockHeader{FileID: 9, BlockNum: uint32(addr), Flags: flagUsed})
			return b
		}
		for step := 0; step < 5000; step++ {
			addr := int32(rng.Intn(3 * capacity))
			switch rng.Intn(3) {
			case 0:
				_, ok := c.get(addr)
				if i := find(addr); (i >= 0) != ok {
					t.Fatalf("cap %d step %d: get(%d) = %v, model %v", capacity, step, addr, ok, i >= 0)
				} else if ok {
					model = append([]int32{addr}, append(model[:i:i], model[i+1:]...)...)
				}
			case 1:
				ev, hasEv, learned, hasLearned := c.put(addr, img(addr))
				if !hasLearned || learned.blockNum != uint32(addr) {
					t.Fatalf("cap %d step %d: put(%d) learned %v %v", capacity, step, addr, learned, hasLearned)
				}
				want, wantEv := int32(-1), false
				if i := find(addr); i >= 0 {
					model = append(model[:i], model[i+1:]...)
				} else if len(model) == capacity {
					want, wantEv = model[len(model)-1], true
					model = model[:len(model)-1]
				}
				model = append([]int32{addr}, model...)
				if hasEv != wantEv || (wantEv && ev.blockNum != uint32(want)) {
					t.Fatalf("cap %d step %d: put(%d) evicted %v %v, model %d %v", capacity, step, addr, ev, hasEv, want, wantEv)
				}
			case 2:
				_, ok := c.invalidate(addr)
				i := find(addr)
				if (i >= 0) != ok {
					t.Fatalf("cap %d step %d: invalidate(%d) = %v, model %v", capacity, step, addr, ok, i >= 0)
				}
				if ok {
					model = append(model[:i], model[i+1:]...)
				}
			}
			if c.len() != len(model) {
				t.Fatalf("cap %d step %d: len %d, model %d", capacity, step, c.len(), len(model))
			}
		}
	}
}
