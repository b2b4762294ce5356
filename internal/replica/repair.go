// Online repair for the replica layer: degraded mirror appends, mirror
// resilvering, and parity rebuild. Repair runs through the ordinary Bridge
// client interface — the file stays readable throughout, with reads served
// from whichever copy (or reconstruction) is reachable.
//
// The recovery model matches the simulated crash semantics: a restarted
// node's data blocks survive (writes are write-through) but any file
// metadata it had not synced reverts, so a suffix of each local file may
// be missing. Repair therefore verifies blocks in ascending order and
// rewrites the losses, which keeps every LFS-level write sequential — the
// invariant Bridge appends require.
package replica

import (
	"errors"
	"fmt"

	"bridge/internal/core"
	"bridge/internal/distrib"
	"bridge/internal/obs"
)

// repairMetrics are the replica layer's typed metric handles. Registration
// is idempotent on the network's shared registry, so fetching the set on
// each use is cheap and every Mirror/Parity over the same network
// aggregates into the same metrics.
type repairMetrics struct {
	degradedCopies       obs.Counter
	overflowBlocks       obs.Counter
	resilveredBlocks     obs.Counter
	parityDegradedWrites obs.Counter
	rebuiltBlocks        obs.Counter
	parityRebuilt        obs.Counter
	readRepairMirror     obs.Counter
	readRepairParity     obs.Counter
	readRepairBlocks     obs.Counter
	rsParityWrites       obs.Counter
	rsDegradedWrites     obs.Counter
	rsReconstructions    obs.Counter
	rsReadRepairs        obs.Counter
	rsRebuilt            obs.Counter
}

// RegisterMetrics registers the replica layer's metric descriptions on r
// without touching any values. Normal operation registers them lazily on
// first use; documentation generation calls this to see the full set.
func RegisterMetrics(r *obs.Registry) { metricsOn(r) }

func metricsOn(r *obs.Registry) repairMetrics {
	return repairMetrics{
		degradedCopies:       r.Counter("replica.degraded_copies", "copies", "Mirror copies that opened a gap after a node failure."),
		overflowBlocks:       r.Counter("replica.overflow_blocks", "blocks", "Blocks diverted to overflow files during degraded appends."),
		resilveredBlocks:     r.Counter("replica.resilvered_blocks", "blocks", "Blocks rewritten while resilvering a mirror copy."),
		parityDegradedWrites: r.Counter("replica.parity_degraded_writes", "stripes", "Parity stripes left stale by a degraded append."),
		rebuiltBlocks:        r.Counter("replica.rebuilt_blocks", "blocks", "Data blocks reconstructed during a parity rebuild."),
		parityRebuilt:        r.Counter("replica.parity_rebuilt", "blocks", "Parity blocks recomputed during a rebuild."),
		readRepairMirror:     r.Counter("bridge.readrepair_mirror", "repairs", "Corrupt blocks rewritten in place from the healthy mirror copy."),
		readRepairParity:     r.Counter("bridge.readrepair_parity", "repairs", "Corrupt blocks rewritten in place from parity reconstruction."),
		readRepairBlocks:     r.Counter("bridge.readrepair_blocks", "blocks", "Total blocks repaired on read across all replica schemes."),
		rsParityWrites:       r.Counter("bridge.rs_parity_writes", "cells", "Parity cell writes (fresh or read-modify-write) by Reed–Solomon appends."),
		rsDegradedWrites:     r.Counter("bridge.rs_degraded_writes", "stripes", "Reed–Solomon stripes left stale by a degraded append."),
		rsReconstructions:    r.Counter("bridge.rs_reconstructions", "blocks", "Data blocks decoded from k surviving cells of a Reed–Solomon stripe."),
		rsReadRepairs:        r.Counter("bridge.rs_readrepairs", "repairs", "Corrupt blocks rewritten in place from Reed–Solomon reconstruction."),
		rsRebuilt:            r.Counter("bridge.rs_rebuilt", "cells", "Data and parity cells rewritten by a Reed–Solomon rebuild."),
	}
}

// nodeFailure reports whether err means "the node is down" rather than a
// semantic failure like NoSpace or a transient stall. Only the health
// monitor's fast-fail triggers degraded writes: it is deterministic and
// cannot be confused with server slowness, so a gap never opens by
// accident. (Degraded writes therefore require health monitoring.)
func nodeFailure(err error) bool {
	return errors.Is(err, core.ErrNodeDown)
}

func (m *Mirror) met() repairMetrics { return metricsOn(m.c.Msg().Net().Stats()) }

// emit records a degrade or repair event on the observability recorder of
// the network c runs on, if it has one.
func emit(c *core.Client, kind, format string, args ...any) {
	if rec := c.Msg().Net().Recorder(); rec != nil {
		rec.Event(c.Msg().Proc().Now(), 0, kind, fmt.Sprintf(format, args...))
	}
}

// appendCopy appends block n to copy i, opening a gap and diverting to the
// overflow file when the copy's next position lands on a dead node.
func (m *Mirror) appendCopy(i int, n int64, payload []byte) error {
	cs := &m.cp[i]
	if cs.gapStart >= 0 {
		return m.appendOverflow(cs, payload)
	}
	err := m.c.SeqWrite(cs.name, payload)
	if err == nil {
		return nil
	}
	if !nodeFailure(err) {
		return err
	}
	cs.gapStart = n
	m.met().degradedCopies.Add(1)
	emit(m.c, "replica.degrade", "%s gap opens at block %d (%v)", cs.name, n, err)
	return m.appendOverflow(cs, payload)
}

// appendOverflow stores the block in the copy's overflow file, creating it
// on the currently healthy nodes on first use.
func (m *Mirror) appendOverflow(cs *copyState, payload []byte) error {
	if cs.ovfName == "" {
		subset, err := m.healthySubset()
		if err != nil {
			return err
		}
		name := cs.name + ".ovf"
		spec := distrib.Spec{Kind: distrib.RoundRobin, P: len(subset)}
		if _, err := m.c.CreateSubset(name, spec, subset); err != nil {
			return fmt.Errorf("replica: creating overflow file: %w", err)
		}
		cs.ovfName = name
	}
	if err := m.c.SeqWrite(cs.ovfName, payload); err != nil {
		return fmt.Errorf("replica: appending overflow: %w", err)
	}
	cs.ovfLen++
	m.met().overflowBlocks.Add(1)
	return nil
}

// healthySubset returns the cluster node indices not currently Dead,
// as reported by the server's health monitor.
func (m *Mirror) healthySubset() ([]int, error) {
	states, err := m.c.Health()
	if err != nil {
		return nil, fmt.Errorf("replica: querying health: %w", err)
	}
	var subset []int
	for i, st := range states {
		if st.State != core.Dead {
			subset = append(subset, i)
		}
	}
	if len(subset) == 0 {
		return nil, fmt.Errorf("replica: no healthy nodes for overflow")
	}
	return subset, nil
}

// readCopy reads block n of copy i, honoring an open gap: diverted blocks
// are served from the overflow file.
func (m *Mirror) readCopy(i int, n int64) ([]byte, error) {
	cs := &m.cp[i]
	if cs.gapStart >= 0 && n >= cs.gapStart {
		k := n - cs.gapStart
		if cs.ovfName == "" || k >= cs.ovfLen {
			return nil, fmt.Errorf("replica: block %d past overflow of %s", n, cs.name)
		}
		return m.c.ReadAt(cs.ovfName, k)
	}
	return m.c.ReadAt(cs.name, n)
}

// writeCopy overwrites block n of copy i in place, honoring an open gap.
func (m *Mirror) writeCopy(i int, n int64, data []byte) error {
	cs := &m.cp[i]
	if cs.gapStart >= 0 && n >= cs.gapStart {
		k := n - cs.gapStart
		if cs.ovfName == "" || k >= cs.ovfLen {
			return fmt.Errorf("replica: block %d past overflow of %s", n, cs.name)
		}
		return m.c.WriteAt(cs.ovfName, k, data)
	}
	return m.c.WriteAt(cs.name, n, data)
}

// readRepair rewrites copy i's corrupt block n with the verified data just
// served from the other copy. The LFS overwrite path re-seals the block's
// checksum (rebuilding its on-disk header from verified neighbors if the
// old image cannot be trusted). Failure is not fatal to the read — the
// block stays corrupt on disk and the scrubber or the next read retries.
func (m *Mirror) readRepair(i int, n int64, data []byte, cause error) {
	if err := m.writeCopy(i, n, data); err != nil {
		emit(m.c, "replica.readrepair", "%s block %d repair failed: %v", m.cp[i].name, n, err)
		return
	}
	m.met().readRepairMirror.Add(1)
	m.met().readRepairBlocks.Add(1)
	emit(m.c, "replica.readrepair", "%s block %d rewritten from mirror (%v)", m.cp[i].name, n, cause)
}

// Resilver restores full redundancy after the failed node has been
// restarted and core.Client.RepairNode has re-registered its files. It
// verifies each copy's blocks in ascending order, rewriting any the crash
// lost from the other copy (the two copies of a block never share a node);
// for a copy with an open gap it then folds the overflow file back into
// the main copy and deletes it. The file stays readable throughout. It
// returns the number of blocks written.
func (m *Mirror) Resilver() (int64, error) {
	var repaired int64
	for i := range m.cp {
		cs := &m.cp[i]
		end := m.blocks
		if cs.gapStart >= 0 {
			end = cs.gapStart
		}
		// Phase 1: the crash reverted the node's unsynced local files, so
		// this copy's blocks on that node may be gone whether or not any
		// append degraded. Ascending verify-and-rewrite keeps the node's
		// local writes sequential.
		for b := int64(0); b < end; b++ {
			if _, err := m.c.ReadAt(cs.name, b); err == nil {
				continue
			}
			data, err := m.readCopy(1-i, b)
			if err != nil {
				return repaired, fmt.Errorf("replica: block %d lost in both copies: %w", b, err)
			}
			if err := m.c.WriteAt(cs.name, b, data); err != nil {
				return repaired, fmt.Errorf("replica: rewriting block %d: %w", b, err)
			}
			repaired++
			m.met().resilveredBlocks.Add(1)
		}
		if cs.gapStart < 0 {
			continue
		}
		// Phase 2: drain the overflow file into the main copy, in order;
		// each write is the copy's next sequential append.
		for k := int64(0); k < cs.ovfLen; k++ {
			data, err := m.c.ReadAt(cs.ovfName, k)
			if err != nil {
				return repaired, fmt.Errorf("replica: reading overflow block %d: %w", k, err)
			}
			if err := m.c.WriteAt(cs.name, cs.gapStart+k, data); err != nil {
				return repaired, fmt.Errorf("replica: restoring block %d: %w", cs.gapStart+k, err)
			}
			repaired++
			m.met().resilveredBlocks.Add(1)
		}
		if cs.ovfName != "" {
			if _, err := m.c.Delete(cs.ovfName); err != nil {
				return repaired, fmt.Errorf("replica: deleting overflow file: %w", err)
			}
		}
		emit(m.c, "replica.resilver", "%s gap [%d,%d) closed", cs.name, cs.gapStart, cs.gapStart+cs.ovfLen)
		cs.gapStart, cs.ovfName, cs.ovfLen = -1, "", 0
	}
	return repaired, nil
}

func (pf *Parity) met() repairMetrics { return metricsOn(pf.c.Msg().Net().Stats()) }

// degradeStripe records a stale parity stripe and surfaces the typed
// degraded-write error. The stripe's parity is untouched (still the XOR of
// the stripe minus the new block), so reconstruction of OTHER stripes is
// unaffected; only this stripe has lost its redundancy until Rebuild.
func (pf *Parity) degradeStripe(stripe int64, cause error) error {
	if pf.dirty == nil {
		pf.dirty = make(map[int64]bool)
	}
	pf.dirty[stripe] = true
	pf.met().parityDegradedWrites.Add(1)
	emit(pf.c, "replica.degrade", "%s parity stripe %d stale (%v)", pf.name, stripe, cause)
	return fmt.Errorf("%w: parity stripe %d: %v", ErrDegradedWrite, stripe, cause)
}

// Degraded reports whether any stripe's parity is stale.
func (pf *Parity) Degraded() bool { return len(pf.dirty) > 0 }

// readRepair rewrites corrupt data block n with its just-computed
// reconstruction. Failure is not fatal to the read — the block stays
// corrupt on disk and the scrubber or the next read retries.
func (pf *Parity) readRepair(n int64, data []byte, cause error) {
	if err := pf.c.WriteAt(pf.name, n, data); err != nil {
		emit(pf.c, "replica.readrepair", "%s block %d repair failed: %v", pf.name, n, err)
		return
	}
	pf.met().readRepairParity.Add(1)
	pf.met().readRepairBlocks.Add(1)
	emit(pf.c, "replica.readrepair", "%s block %d rewritten from parity stripe (%v)", pf.name, n, cause)
}

// Rebuild restores full redundancy after a failed node has been restarted
// and core.Client.RepairNode has re-registered its files: unreadable data
// blocks are reconstructed from their stripes in ascending order, then
// stale or unreadable parity blocks are recomputed. The file stays
// readable throughout. It returns the number of blocks written.
func (pf *Parity) Rebuild() (int64, error) {
	dataP := int64(pf.p - 1)
	var repaired int64
	for b := int64(0); b < pf.blocks; b++ {
		if _, err := pf.c.ReadAt(pf.name, b); err == nil {
			continue
		}
		rec, err := pf.Reconstruct(b)
		if err != nil {
			return repaired, fmt.Errorf("replica: rebuilding data block %d: %w", b, err)
		}
		if err := pf.c.WriteAt(pf.name, b, rec); err != nil {
			return repaired, fmt.Errorf("replica: rewriting data block %d: %w", b, err)
		}
		repaired++
		pf.met().rebuiltBlocks.Add(1)
	}
	stripes := (pf.blocks + dataP - 1) / dataP
	for s := int64(0); s < stripes; s++ {
		if !pf.dirty[s] {
			if _, err := pf.c.ReadAt(parityName(pf.name), s); err == nil {
				continue
			}
		}
		acc := make([]byte, core.PayloadBytes)
		for b := s * dataP; b < (s+1)*dataP && b < pf.blocks; b++ {
			data, err := pf.c.ReadAt(pf.name, b)
			if err != nil {
				return repaired, fmt.Errorf("replica: reading block %d for parity: %w", b, err)
			}
			for j, by := range data {
				acc[j] ^= by
			}
		}
		if err := pf.c.WriteAt(parityName(pf.name), s, acc); err != nil {
			return repaired, fmt.Errorf("replica: rewriting parity stripe %d: %w", s, err)
		}
		delete(pf.dirty, s)
		repaired++
		pf.met().parityRebuilt.Add(1)
	}
	if repaired > 0 {
		emit(pf.c, "replica.rebuild", "%s restored %d blocks", pf.name, repaired)
	}
	return repaired, nil
}
