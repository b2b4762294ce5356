// Reed–Solomon k+m striping on top of unmodified Bridge files: the third
// answer to the paper's fault-tolerance concern, between Mirror's 2x cost
// and Parity's single-failure limit. Data blocks interleave across k nodes
// exactly as a plain Bridge file; m parity columns on m further nodes hold
// independent GF(2^8) linear combinations of each stripe, so any m cell
// losses per stripe — node failures, crashes, or bitrot — are recoverable
// from the surviving k, at a storage cost of (k+m)/k.
package replica

import (
	"errors"
	"fmt"

	"bridge/internal/core"
	"bridge/internal/distrib"
	"bridge/internal/sim"
)

// RSOptions parameterizes a Reed–Solomon file.
type RSOptions struct {
	// K is the number of data cells per stripe (and data nodes). K >= 1.
	K int
	// M is the number of parity cells per stripe (and parity nodes);
	// the file survives any M simultaneous cell losses. M >= 1.
	M int
	// BlockBytes is the cell size appends must supply; the GF(256) math
	// runs over fixed-size cells. Default core.PayloadBytes.
	BlockBytes int
}

func (o *RSOptions) applyDefaults() error {
	if o.BlockBytes == 0 {
		o.BlockBytes = core.PayloadBytes
	}
	if o.K < 1 || o.M < 1 {
		return fmt.Errorf("replica: RS needs k >= 1 and m >= 1, got k=%d m=%d", o.K, o.M)
	}
	if o.K+o.M > 256 {
		return fmt.Errorf("replica: RS needs k+m <= 256 (distinct GF(256) points), got %d", o.K+o.M)
	}
	if o.BlockBytes < 1 || o.BlockBytes > core.PayloadBytes {
		return fmt.Errorf("replica: RS block size %d outside [1, %d]", o.BlockBytes, core.PayloadBytes)
	}
	return nil
}

// RS is a Reed–Solomon protected Bridge file. The handle caches the data
// block count so degraded reads never need a size refresh (which would
// contact a failed node).
type RS struct {
	c      *core.Client
	name   string
	opts   RSOptions
	enc    [][]byte // (k+m)×k systematic encoding matrix
	data   core.Meta
	blocks int64
	// dirty marks stripes with at least one stale parity cell after a
	// degraded append; Rebuild recomputes them.
	dirty map[int64]bool
}

func rsParityName(name string, j int) string { return fmt.Sprintf("%s.rs%d", name, j) }

// CreateRS creates the data file across cluster nodes 0..k-1 and one
// single-node parity file on each of nodes k..k+m-1.
func CreateRS(pc sim.Proc, c *core.Client, name string, opts RSOptions) (*RS, error) {
	if err := opts.applyDefaults(); err != nil {
		return nil, err
	}
	subset := make([]int, opts.K)
	for i := range subset {
		subset[i] = i
	}
	data, err := c.CreateSubset(name, distrib.Spec{Kind: distrib.RoundRobin, P: opts.K}, subset)
	if err != nil {
		return nil, fmt.Errorf("replica: creating RS data file: %w", err)
	}
	for j := 0; j < opts.M; j++ {
		spec := distrib.Spec{Kind: distrib.RoundRobin, P: 1}
		if _, err := c.CreateSubset(rsParityName(name, j), spec, []int{opts.K + j}); err != nil {
			return nil, fmt.Errorf("replica: creating RS parity file %d: %w", j, err)
		}
	}
	return &RS{c: c, name: name, opts: opts, enc: rsEncodingMatrix(opts.K, opts.M), data: data}, nil
}

// OpenRS opens an existing Reed–Solomon file. Every constituent file must
// be healthy at open time (the size is refreshed here and cached for
// degraded operation).
func OpenRS(pc sim.Proc, c *core.Client, name string, opts RSOptions) (*RS, error) {
	if err := opts.applyDefaults(); err != nil {
		return nil, err
	}
	data, err := c.Open(name)
	if err != nil {
		return nil, fmt.Errorf("replica: opening RS data file: %w", err)
	}
	for j := 0; j < opts.M; j++ {
		if _, err := c.Open(rsParityName(name, j)); err != nil {
			return nil, fmt.Errorf("replica: opening RS parity file %d: %w", j, err)
		}
	}
	return &RS{c: c, name: name, opts: opts, enc: rsEncodingMatrix(opts.K, opts.M), data: data, blocks: data.Blocks}, nil
}

// Blocks returns the number of data blocks.
func (rs *RS) Blocks() int64 { return rs.blocks }

// StorageBlocks stats the data file and every parity column and returns
// the total blocks the file occupies — data plus parity. Dividing by
// Blocks gives the measured storage overhead: (k+m)/k asymptotically,
// against Mirror's 2x.
func (rs *RS) StorageBlocks() (int64, error) {
	meta, err := rs.c.Stat(rs.name)
	if err != nil {
		return 0, err
	}
	total := meta.Blocks
	for j := 0; j < rs.opts.M; j++ {
		pm, err := rs.c.Stat(rsParityName(rs.name, j))
		if err != nil {
			return 0, err
		}
		total += pm.Blocks
	}
	return total, nil
}

// Degraded reports whether any stripe's parity is stale.
func (rs *RS) Degraded() bool { return len(rs.dirty) > 0 }

func (rs *RS) met() repairMetrics { return metricsOn(rs.c.Msg().Net().Stats()) }

// Append writes the payload as the next data block and folds it into each
// of the m parity cells of its stripe — a read-modify-write per parity
// column, or a plain write at a stripe's first cell. If a parity node is
// unreachable the data write still counts: the stripe is marked stale and
// ErrDegradedWrite tells the caller redundancy is reduced until Rebuild.
func (rs *RS) Append(payload []byte) error {
	if len(payload) != rs.opts.BlockBytes {
		return fmt.Errorf("replica: RS requires %d-byte payloads, got %d", rs.opts.BlockBytes, len(payload))
	}
	n := rs.blocks
	if err := rs.c.SeqWrite(rs.name, payload); err != nil {
		return fmt.Errorf("replica: appending RS data: %w", err)
	}
	rs.blocks++
	k := int64(rs.opts.K)
	stripe, cell := n/k, int(n%k)
	var degradeErr error
	for j := 0; j < rs.opts.M; j++ {
		if err := rs.updateParity(j, stripe, cell, payload); err != nil && degradeErr == nil {
			degradeErr = err
		}
	}
	if degradeErr != nil {
		return rs.degradeStripe(stripe, degradeErr)
	}
	return nil
}

// updateParity folds data cell `cell` of `stripe` into parity column j:
// P_j ^= E[k+j][cell]·d, with the stripe's first cell writing fresh
// parity instead of reading back a block that does not exist yet.
func (rs *RS) updateParity(j int, stripe int64, cell int, payload []byte) error {
	coef := rs.enc[rs.opts.K+j][cell]
	upd := make([]byte, rs.opts.BlockBytes)
	if cell > 0 {
		old, err := rs.c.ReadAt(rsParityName(rs.name, j), stripe)
		if err != nil {
			return fmt.Errorf("reading parity %d: %w", j, err)
		}
		copy(upd, old)
	}
	gfMulAdd(upd, payload, coef)
	if err := rs.c.WriteAt(rsParityName(rs.name, j), stripe, upd); err != nil {
		return fmt.Errorf("writing parity %d: %w", j, err)
	}
	rs.met().rsParityWrites.Add(1)
	return nil
}

// degradeStripe records a stale stripe and surfaces the typed
// degraded-write error.
func (rs *RS) degradeStripe(stripe int64, cause error) error {
	if rs.dirty == nil {
		rs.dirty = make(map[int64]bool)
	}
	rs.dirty[stripe] = true
	rs.met().rsDegradedWrites.Add(1)
	emit(rs.c, "replica.degrade", "%s RS stripe %d stale (%v)", rs.name, stripe, cause)
	return fmt.Errorf("%w: RS stripe %d: %v", ErrDegradedWrite, stripe, cause)
}

// Read returns data block n, reconstructing it from any k surviving cells
// of its stripe if it is unreachable. When the block failed its checksum
// (rather than its node being down), the reconstruction is written back
// over the bad block — read-repair — before it is returned.
func (rs *RS) Read(n int64) ([]byte, error) {
	data, err := rs.c.ReadAt(rs.name, n)
	if err == nil {
		return data, nil
	}
	rec, rerr := rs.Reconstruct(n)
	if rerr != nil {
		return nil, rerr
	}
	if errors.Is(err, core.ErrCorrupt) {
		rs.readRepair(n, rec, err)
	}
	return rec, nil
}

// Reconstruct rebuilds data block n from any k readable cells of its
// stripe (sibling data blocks count as unit-vector rows, parity cells as
// their encoding rows; cells past EOF are known zeros), without touching
// the block itself.
func (rs *RS) Reconstruct(n int64) ([]byte, error) {
	if n < 0 || n >= rs.blocks {
		return nil, fmt.Errorf("replica: block %d out of range", n)
	}
	k := rs.opts.K
	stripe := n / int64(k)
	if rs.dirty[stripe] {
		return nil, fmt.Errorf("%w: RS stripe %d parity is stale", ErrTooManyFailures, stripe)
	}
	rows := make([][]byte, 0, k)
	vals := make([][]byte, 0, k)
	var firstErr error
	for i := 0; i < k && len(rows) < k; i++ {
		g := stripe*int64(k) + int64(i)
		if g == n {
			continue
		}
		cell := make([]byte, rs.opts.BlockBytes)
		if g < rs.blocks {
			data, err := rs.c.ReadAt(rs.name, g)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("data cell %d: %v", g, err)
				}
				continue
			}
			copy(cell, data)
		}
		rows = append(rows, rs.enc[i])
		vals = append(vals, cell)
	}
	for j := 0; j < rs.opts.M && len(rows) < k; j++ {
		pcell, err := rs.c.ReadAt(rsParityName(rs.name, j), stripe)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("parity cell %d: %v", j, err)
			}
			continue
		}
		cell := make([]byte, rs.opts.BlockBytes)
		copy(cell, pcell)
		rows = append(rows, rs.enc[k+j])
		vals = append(vals, cell)
	}
	if len(rows) < k {
		return nil, fmt.Errorf("%w: %d of %d cells readable (%v)", ErrTooManyFailures, len(rows), k, firstErr)
	}
	inv, err := gfMatInv(rows)
	if err != nil {
		// Any k rows of the encoding matrix are invertible by construction.
		return nil, fmt.Errorf("replica: RS decode matrix: %w", err)
	}
	out := make([]byte, rs.opts.BlockBytes)
	want := int(n % int64(k))
	for r := 0; r < k; r++ {
		gfMulAdd(out, vals[r], inv[want][r])
	}
	rs.met().rsReconstructions.Add(1)
	return out, nil
}

// readRepair rewrites corrupt data block n with its just-computed
// reconstruction. Failure is not fatal to the read — the block stays
// corrupt on disk and the scrubber or the next read retries.
func (rs *RS) readRepair(n int64, data []byte, cause error) {
	if err := rs.c.WriteAt(rs.name, n, data); err != nil {
		emit(rs.c, "replica.readrepair", "%s block %d repair failed: %v", rs.name, n, err)
		return
	}
	rs.met().rsReadRepairs.Add(1)
	rs.met().readRepairBlocks.Add(1)
	emit(rs.c, "replica.readrepair", "%s block %d rewritten from RS reconstruction (%v)", rs.name, n, cause)
}

// Rebuild restores full redundancy after failures: unreadable data blocks
// are reconstructed in ascending order (keeping every node's local writes
// sequential), then stale or unreadable parity cells are recomputed from
// the repaired data. The file stays readable throughout. It returns the
// number of cells written.
func (rs *RS) Rebuild() (int64, error) {
	k := int64(rs.opts.K)
	var repaired int64
	for b := int64(0); b < rs.blocks; b++ {
		if _, err := rs.c.ReadAt(rs.name, b); err == nil {
			continue
		}
		rec, err := rs.Reconstruct(b)
		if err != nil {
			return repaired, fmt.Errorf("replica: rebuilding RS data block %d: %w", b, err)
		}
		if err := rs.c.WriteAt(rs.name, b, rec); err != nil {
			return repaired, fmt.Errorf("replica: rewriting RS data block %d: %w", b, err)
		}
		repaired++
		rs.met().rsRebuilt.Add(1)
	}
	stripes := (rs.blocks + k - 1) / k
	for s := int64(0); s < stripes; s++ {
		for j := 0; j < rs.opts.M; j++ {
			if !rs.dirty[s] {
				if _, err := rs.c.ReadAt(rsParityName(rs.name, j), s); err == nil {
					continue
				}
			}
			acc := make([]byte, rs.opts.BlockBytes)
			for i := int64(0); i < k; i++ {
				g := s*k + i
				if g >= rs.blocks {
					break
				}
				data, err := rs.c.ReadAt(rs.name, g)
				if err != nil {
					return repaired, fmt.Errorf("replica: reading RS block %d for parity: %w", g, err)
				}
				cell := make([]byte, rs.opts.BlockBytes)
				copy(cell, data)
				gfMulAdd(acc, cell, rs.enc[int(k)+j][i])
			}
			if err := rs.c.WriteAt(rsParityName(rs.name, j), s, acc); err != nil {
				return repaired, fmt.Errorf("replica: rewriting RS parity %d stripe %d: %w", j, s, err)
			}
			repaired++
			rs.met().rsRebuilt.Add(1)
		}
		delete(rs.dirty, s)
	}
	if repaired > 0 {
		emit(rs.c, "replica.rebuild", "%s restored %d cells", rs.name, repaired)
	}
	return repaired, nil
}
