package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"bridge"
	"bridge/internal/sim"
)

// workload is one closed-loop traffic mix. A fresh value runs each round:
// setup boots inputs into a new cluster (counted in setup_s), measure is
// the timed phase, and layers returns the per-layer numbers only the
// workload itself can see, such as tool phase times.
type workload interface {
	config() bridge.Config
	setup(s *bridge.Session) error
	measure(s *bridge.Session, c *calls) error
	layers() map[string]float64
	// corrupt flips one byte of the shadow copy the checker compares
	// against, so the self-test can prove the checker fails.
	corrupt()
}

type workloadSpec struct {
	name string
	why  string
	// variants is how many input sets, each from its own seed derived
	// from the run's, one run pools its simulated metrics over. Workloads
	// whose results swing with the inputs need more than one to be steady.
	variants int
	// make builds a round's workload from the seed; tiny shrinks it for
	// the self-test.
	make func(seed int64, tiny bool) workload
}

var workloads = []workloadSpec{
	{"naive_rw", "one client, p=8, journal+write-behind+read-ahead: sequential write/read of a file 4x the EFS caches, then a random ReadAt/WriteAt mix", 1, newNaiveRW},
	{"tool_sort", "p=8 copy tool then parallel external merge sort of a preloaded record file, output read back: tools, lfs, efs and disk off the server path", 1, newToolSort},
	{"meta_churn", "4 shards x 3 Raft replicas, 4 clients cycling create/append/stat/read/delete on near-zero-latency disks: raft, msg and the scheduler", 24, metaChurnWith(4)},
	{"redundant_rw", "p=8 with health: Mirror, Parity and RS(6,2) files written and read, then one node failed and everything read again", 1, newRedundantRW},
	// meta_storm is meta_churn with 8 clients, where retries after 1 s
	// client timeouts feed on themselves. About 1% of calls time out, so
	// its p99 latencies sit on that cliff and swing by a third between
	// seeds even pooled over 32 input variants: no bound holds them, and
	// it is run by hand to study the tail, not gated.
	{"meta_storm", "meta_churn with 8 clients: retry storms after client timeouts; diagnostic, not gated", 8, metaChurnWith(8)},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// fill writes the deterministic payload for (seed, stream, index) into b.
func fill(b []byte, seed int64, stream, index uint64) {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ stream<<40 ^ index
	for i := 0; i < len(b); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		for j := 0; j < 8 && i+j < len(b); j++ {
			b[i+j] = byte(z >> (8 * j))
		}
	}
}

// seedName returns prefix plus a random suffix of random length, so the
// names, and with them the size of every directory message, vary with the
// seed.
func seedName(rng *rand.Rand, prefix string) string {
	const hex = "0123456789abcdef"
	b := []byte(prefix + "-")
	for i := 4 + rng.Intn(13); i > 0; i-- {
		b = append(b, hex[rng.Intn(16)])
	}
	return string(b)
}

// flipped returns a copy of b with one bit changed. The original is left
// alone: the system may still hold it.
func flipped(b []byte) []byte {
	c := append([]byte(nil), b...)
	c[len(c)/2] ^= 1
	return c
}

func block(seed int64, stream, index uint64) []byte {
	b := make([]byte, bridge.PayloadBytes)
	fill(b, seed, stream, index)
	return b
}

// checkBlock compares a read block against the shadow copy.
func checkBlock(c *calls, what string, n int64, got, want []byte) {
	if !bytes.Equal(got, want) {
		c.mismatch("%s block %d: read %d bytes that differ from the %d written", what, n, len(got), len(want))
	}
}

// naiveRW drives the naive sequential view: one client, every server-side
// cache on, a file several times the aggregate EFS block cache.
type naiveRW struct {
	seed   int64
	name   string
	blocks int // file size
	batch  int // AppendN and ReadN batch
	// data is what the workload writes; shadow is what the checker
	// expects back. They share buffers unless corrupt diverges them.
	data   [][]byte
	shadow [][]byte
	// targets is the random mix's block sequence and isRead its reads.
	targets []int
	isRead  []bool
	ver     uint64
}

func newNaiveRW(seed int64, tiny bool) workload {
	rng := rand.New(rand.NewSource(seed))
	w := &naiveRW{seed: seed, name: seedName(rng, "naive"), blocks: 4096, batch: 64}
	mix := 2048
	if tiny {
		w.blocks, w.batch, mix = 256, 16, 128
	}
	for i := 0; i < mix; i++ {
		w.targets = append(w.targets, rng.Intn(w.blocks))
		w.isRead = append(w.isRead, rng.Intn(2) == 0)
	}
	w.data = make([][]byte, w.blocks)
	for i := range w.data {
		w.data[i] = block(seed, 1, uint64(i))
	}
	w.shadow = append([][]byte(nil), w.data...)
	return w
}

// The EFS block cache is 128 blocks per node, so 4096 blocks on 8 nodes is
// four times the aggregate cache.
func (w *naiveRW) config() bridge.Config {
	return bridge.Config{Nodes: 8, Journal: 64, WriteBehind: 2, ReadAhead: 2}
}

func (w *naiveRW) setup(s *bridge.Session) error { return s.Create(w.name) }

// measure writes the file, reads it back, then runs the random mix. The
// first quarter moves in AppendN and ReadN batches; the rest moves a block
// per call, the naive interface's unit, where write-behind and read-ahead
// do the work (a batched append bypasses write-behind). Random
// single-block calls walk each node's block chain, so their latencies
// spread over many disk accesses; they are a quarter of the calls and set
// the tail, while the sequential calls set the median.
func (w *naiveRW) measure(s *bridge.Session, c *calls) error {
	n := 0
	for ; n < w.blocks/4; n += w.batch {
		t := c.start()
		got, err := s.AppendN(w.name, w.data[n:n+w.batch])
		c.end(t, classWrite, got, got*bridge.PayloadBytes, err)
		if err != nil {
			return fmt.Errorf("append batch at %d: %w", n, err)
		}
	}
	for ; n < w.blocks; n++ {
		t := c.start()
		err := s.Append(w.name, w.data[n])
		c.end(t, classWrite, 1, bridge.PayloadBytes, err)
		if err != nil {
			return fmt.Errorf("append %d: %w", n, err)
		}
	}
	t := c.start()
	_, err := s.Flush(w.name)
	c.end(t, classOther, 0, 0, err)
	if err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	t = c.start()
	_, err = s.Open(w.name)
	c.end(t, classMeta, 0, 0, err)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	for n = 0; n < w.blocks/4; {
		t := c.start()
		got, err := s.ReadN(w.name, w.batch)
		c.end(t, classRead, len(got), len(got)*bridge.PayloadBytes, err)
		if err != nil {
			return fmt.Errorf("read batch at %d: %w", n, err)
		}
		for _, b := range got {
			checkBlock(c, w.name, int64(n), b, w.shadow[n])
			n++
		}
	}
	for ; n < w.blocks; n++ {
		t := c.start()
		got, err := s.Read(w.name)
		c.end(t, classRead, 1, len(got), err)
		if err != nil {
			return fmt.Errorf("read %d: %w", n, err)
		}
		checkBlock(c, w.name, int64(n), got, w.shadow[n])
	}
	for i, target := range w.targets {
		if i%16 == 0 {
			// Open is a hint in Bridge; a naive client re-opens to learn
			// the file's structure, and every other time stats it.
			t := c.start()
			var meta bridge.FileInfo
			var err error
			if i%32 == 0 {
				meta, err = s.Open(w.name)
			} else {
				meta, err = s.Stat(w.name)
			}
			c.end(t, classMeta, 0, 0, err)
			if err == nil && meta.Blocks != int64(w.blocks) {
				c.mismatch("%s: %d blocks, want %d", w.name, meta.Blocks, w.blocks)
			}
		}
		b := int64(target)
		if w.isRead[i] {
			t := c.start()
			got, err := s.ReadAt(w.name, b)
			c.end(t, classRead, 1, len(got), err)
			if err == nil && w.shadow[b] != nil {
				checkBlock(c, w.name, b, got, w.shadow[b])
			}
			continue
		}
		w.ver++
		data := block(w.seed, 2, w.ver)
		t := c.start()
		err := s.WriteAt(w.name, b, data)
		c.end(t, classWrite, 1, len(data), err)
		if err != nil {
			// The block's contents are unknown after a failed overwrite.
			w.shadow[b] = nil
			continue
		}
		w.shadow[b] = data
	}
	return nil
}

func (w *naiveRW) layers() map[string]float64 { return nil }

func (w *naiveRW) corrupt() { w.shadow[len(w.shadow)/2] = flipped(w.shadow[len(w.shadow)/2]) }

// toolSort is the paper's headline tool path: copy, then the two-phase
// parallel external merge sort, on a record file preloaded in setup.
type toolSort struct {
	in, copy, out, final string
	records              int
	inCore               int
	input                [][]byte
	want                 map[string]int
	phases               map[string]float64
}

const (
	sortKey    = 8 // SortOptions.KeyBytes default
	sortPreBat = 256
)

func newToolSort(seed int64, tiny bool) workload {
	// 512 records per node against a 64-record in-core buffer: eight runs
	// per node merge locally before the token-ring passes.
	rng := rand.New(rand.NewSource(seed))
	w := &toolSort{in: seedName(rng, "records"), records: 4096, inCore: 64}
	w.copy, w.out, w.final = w.in+".copy", w.in+".sorting", w.in+".sorted"
	if tiny {
		w.records, w.inCore = 256, 8
	}
	w.input = make([][]byte, w.records)
	w.want = make(map[string]int, w.records)
	for i := range w.input {
		w.input[i] = block(seed, 3, uint64(i))
		w.want[string(w.input[i])]++
	}
	return w
}

func (w *toolSort) config() bridge.Config { return bridge.Config{Nodes: 8} }

func (w *toolSort) setup(s *bridge.Session) error {
	if err := s.Create(w.in); err != nil {
		return err
	}
	for n := 0; n < len(w.input); n += sortPreBat {
		end := min(n+sortPreBat, len(w.input))
		if _, err := s.AppendN(w.in, w.input[n:end]); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

func (w *toolSort) measure(s *bridge.Session, c *calls) error {
	n := w.records
	t := c.start()
	_, err := s.Copy(w.in, w.copy)
	c.endTool(t, n, n, err)
	if err != nil {
		return fmt.Errorf("copy: %w", err)
	}
	copyMS := ms(s.Now() - t.sim)
	t = c.start()
	st, err := s.Sort(w.copy, w.out, bridge.SortOptions{InCore: w.inCore})
	c.endTool(t, n, n, err)
	if err != nil {
		return fmt.Errorf("sort: %w", err)
	}
	w.phases = map[string]float64{
		"tools.copy_ms":       copyMS,
		"tools.sort_local_ms": ms(st.LocalSort),
		"tools.sort_merge_ms": ms(st.Merge),
	}
	// Check the sizes, move the result into place, drop the intermediate copy,
	// then open the result and read it back.
	for _, name := range []string{w.copy, w.out} {
		t := c.start()
		meta, err := s.Stat(name)
		c.end(t, classMeta, 0, 0, err)
		if err == nil && meta.Blocks != int64(n) {
			c.mismatch("stat %s: %d blocks, want %d", name, meta.Blocks, n)
		}
	}
	t = c.start()
	_, err = s.Rename(w.out, w.final)
	c.end(t, classMeta, 0, 0, err)
	if err != nil {
		return fmt.Errorf("rename: %w", err)
	}
	t = c.start()
	freed, err := s.Delete(w.copy)
	c.end(t, classMeta, 0, 0, err)
	if err == nil && freed < n {
		c.mismatch("delete %s freed %d blocks, want at least %d", w.copy, freed, n)
	}
	t = c.start()
	meta, err := s.Open(w.final)
	c.end(t, classMeta, 0, 0, err)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	if meta.Blocks != int64(n) {
		c.mismatch("open %s: %d blocks, want %d", w.final, meta.Blocks, n)
	}
	seen := make(map[string]int, n)
	var prev []byte
	for read := 0; read < n; {
		t := c.start()
		got, err := s.ReadN(w.final, 64)
		c.end(t, classRead, len(got), len(got)*bridge.PayloadBytes, err)
		if err != nil {
			return fmt.Errorf("read sorted at %d: %w", read, err)
		}
		for _, b := range got {
			if prev != nil && len(b) >= sortKey && bytes.Compare(prev[:sortKey], b[:sortKey]) > 0 {
				c.mismatch("%s: record %d sorts before record %d", w.final, read, read-1)
			}
			if len(b) >= sortKey {
				prev = b
			}
			seen[string(b)]++
			read++
		}
	}
	if len(seen) != len(w.want) {
		c.mismatch("%s holds %d distinct records, input has %d", w.final, len(seen), len(w.want))
		return nil
	}
	for rec, k := range seen {
		if w.want[rec] != k {
			c.mismatch("%s is not a permutation of %s", w.final, w.in)
			break
		}
	}
	return nil
}

func (w *toolSort) layers() map[string]float64 { return w.phases }

// corrupt changes the expected multiset, as one flipped byte of an input
// record would.
func (w *toolSort) corrupt() {
	w.want[string(w.input[0])]--
	w.want[string(flipped(w.input[0]))]++
}

// metaChurn is many clients hammering the sharded, replicated directory
// with small files that stay in cache.
type metaChurn struct {
	seed    int64
	clients int
	cycles  int
	names   [][]string
	flip    bool // expect a changed byte in client 0's first file
}

func metaChurnWith(clients int) func(seed int64, tiny bool) workload {
	return func(seed int64, tiny bool) workload { return newMetaChurn(seed, clients, tiny) }
}

func newMetaChurn(seed int64, clients int, tiny bool) workload {
	w := &metaChurn{seed: seed, clients: clients, cycles: 120}
	if tiny {
		w.cycles = 4
	}
	rng := rand.New(rand.NewSource(seed))
	w.names = make([][]string, w.clients)
	for i := range w.names {
		w.names[i] = make([]string, w.cycles)
		for j := range w.names[i] {
			w.names[i][j] = seedName(rng, fmt.Sprintf("c%d-%d", i, j))
		}
	}
	return w
}

func (w *metaChurn) config() bridge.Config {
	return bridge.Config{Nodes: 8, Servers: 4, Replicas: 3, DiskLatency: time.Microsecond}
}

// setup waits until every shard group has elected a leader, so elections
// at boot count in setup_s and only later elections in the measured phase.
func (w *metaChurn) setup(s *bridge.Session) error {
	deadline := s.Now() + 60*time.Second
	for {
		ready := true
		for g := 0; g < s.Shards(); g++ {
			if s.LeaderServer(g) < 0 {
				ready = false
			}
		}
		if ready {
			return nil
		}
		if s.Now() > deadline {
			return errors.New("no leader on every shard after 60 simulated seconds")
		}
		s.Proc().Sleep(10 * time.Millisecond)
	}
}

const churnPayload = 64

func (w *metaChurn) measure(s *bridge.Session, c *calls) error {
	done := s.Cluster().Runtime().NewQueue("perfbench.churn.done")
	for i := 0; i < w.clients; i++ {
		i := i
		s.Proc().Go(fmt.Sprintf("perfbench-churn%d", i), func(p sim.Proc) {
			defer done.Send(i)
			cl := s.Cluster().NewClient(p, 0, fmt.Sprintf("perfbench.churn%d", i))
			defer cl.Close()
			for j, name := range w.names[i] {
				data := make([]byte, churnPayload)
				fill(data, w.seed, 4, uint64(i<<20|j))
				t := c.start()
				_, err := cl.Create(name)
				c.end(t, classMeta, 0, 0, err)
				if err != nil {
					continue
				}
				t = c.start()
				err = cl.SeqWrite(name, data)
				c.end(t, classWrite, 1, len(data), err)
				t = c.start()
				meta, err := cl.Stat(name)
				c.end(t, classMeta, 0, 0, err)
				if err == nil && meta.Blocks != 1 {
					c.mismatch("stat %s: %d blocks, want 1", name, meta.Blocks)
				}
				t = c.start()
				got, err := cl.ReadAt(name, 0)
				c.end(t, classRead, 1, len(got), err)
				want := data
				if w.flip && i == 0 && j == 0 {
					want = flipped(data)
				}
				if err == nil {
					checkBlock(c, name, 0, got, want)
				}
				t = c.start()
				_, err = cl.Delete(name)
				c.end(t, classMeta, 0, 0, err)
			}
		})
	}
	for i := 0; i < w.clients; i++ {
		if _, ok := done.Recv(s.Proc()); !ok {
			return errors.New("client completion queue closed")
		}
	}
	return nil
}

func (w *metaChurn) layers() map[string]float64 { return nil }

func (w *metaChurn) corrupt() { w.flip = true }

// redundantRW exercises the three redundancy engines, healthy and with one
// storage node failed.
type redundantRW struct {
	names    []string // per engine
	records  int
	data     [][]byte // appended to every engine
	want     [][]byte // what the checker expects back
	replicas map[string]float64
}

func newRedundantRW(seed int64, tiny bool) workload {
	rng := rand.New(rand.NewSource(seed))
	w := &redundantRW{records: 768}
	if tiny {
		w.records = 24
	}
	for _, e := range engineNames {
		w.names = append(w.names, seedName(rng, e))
	}
	w.data = make([][]byte, w.records)
	for i := range w.data {
		w.data[i] = block(seed, 5, uint64(i))
	}
	w.want = append([][]byte(nil), w.data...)
	return w
}

func (w *redundantRW) config() bridge.Config {
	return bridge.Config{Nodes: 8, Health: &bridge.HealthConfig{}}
}

func (w *redundantRW) setup(s *bridge.Session) error {
	_, err := s.Inspect().Info()
	return err
}

// engine is the part of Mirror, Parity and RS the workload drives.
type engine interface {
	Append(payload []byte) error
	Read(n int64) ([]byte, error)
}

var engineNames = []string{"mirror", "parity", "rs"}

// failedNode holds a data column of every engine: Mirror spans all 8
// nodes, Parity's data the first 7 and RS(6,2)'s data the first 6.
const failedNode = 2

var rsOptions = bridge.RSOptions{K: 6, M: 2}

func (w *redundantRW) measure(s *bridge.Session, c *calls) error {
	engines := make([]engine, len(engineNames))
	t := c.start()
	m, err := s.NewMirror(w.names[0])
	c.end(t, classMeta, 0, 0, err)
	if err != nil {
		return err
	}
	engines[0] = m
	t = c.start()
	p, err := s.NewParity(w.names[1])
	c.end(t, classMeta, 0, 0, err)
	if err != nil {
		return err
	}
	engines[1] = p
	t = c.start()
	rs, err := s.NewRS(w.names[2], rsOptions)
	c.end(t, classMeta, 0, 0, err)
	if err != nil {
		return err
	}
	engines[2] = rs
	for i, d := range w.data {
		for e, eng := range engines {
			t := c.start()
			err := eng.Append(d)
			c.end(t, classWrite, 1, len(d), err)
			if err != nil {
				return fmt.Errorf("%s append %d: %w", engineNames[e], i, err)
			}
		}
	}
	w.replicas = map[string]float64{}
	stored := func(names ...string) float64 {
		var total int64
		for _, name := range names {
			t := c.start()
			meta, err := s.Stat(name)
			c.end(t, classMeta, 0, 0, err)
			total += meta.Blocks
		}
		return float64(total) / float64(w.records)
	}
	w.replicas["replica.mirror.storage_blocks_per_user_block"] = stored(w.names[0], w.names[0]+".mirror")
	w.replicas["replica.parity.storage_blocks_per_user_block"] = stored(w.names[1], w.names[1]+".parity")
	t = c.start()
	rsBlocks, err := rs.StorageBlocks()
	c.end(t, classMeta, 0, 0, err)
	w.replicas["replica.rs.storage_blocks_per_user_block"] = float64(rsBlocks) / float64(w.records)

	readAll := func(tag string) {
		for e, eng := range engines {
			start := s.Now()
			for i := range w.data {
				t := c.start()
				got, err := eng.Read(int64(i))
				c.end(t, classRead, 1, len(got), err)
				if err == nil {
					checkBlock(c, engineNames[e], int64(i), got, w.want[i])
				}
			}
			if tag != "" {
				w.replicas["replica."+engineNames[e]+"."+tag] = ms(s.Now()-start) / float64(len(w.data))
			}
		}
	}
	// A reader opens the files afresh, as another session would.
	reopen := []func() (engine, error){
		func() (engine, error) { return s.OpenMirror(w.names[0]) },
		func() (engine, error) { return s.OpenParity(w.names[1]) },
		func() (engine, error) { return s.OpenRS(w.names[2], rsOptions) },
	}
	for e, open := range reopen {
		t := c.start()
		h, err := open()
		c.end(t, classMeta, 0, 0, err)
		if err != nil {
			return fmt.Errorf("reopen %s: %w", engineNames[e], err)
		}
		engines[e] = h
	}
	readAll("")

	t = c.start()
	err = s.FailNode(failedNode)
	c.end(t, classOther, 0, 0, err)
	if err != nil {
		return err
	}
	// Reads after the failure wait for the health monitor to mark the
	// node Dead; until then a call to it would wait out the LFS timeout.
	failed := s.Cluster().Nodes[failedNode].ID
	for dead := false; !dead; {
		t := c.start()
		hs, err := s.Inspect().Health()
		c.end(t, classOther, 0, 0, err)
		if err != nil {
			return fmt.Errorf("health: %w", err)
		}
		for _, h := range hs {
			dead = dead || (h.Node == failed && h.State == bridge.Dead)
		}
		if !dead {
			s.Proc().Sleep(250 * time.Millisecond)
		}
	}
	readAll("degraded_read_ms")
	return nil
}

func (w *redundantRW) layers() map[string]float64 { return w.replicas }

func (w *redundantRW) corrupt() { w.want[len(w.want)/2] = flipped(w.want[len(w.want)/2]) }
