package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"bridge/internal/distrib"
	"bridge/internal/efs"
	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/obs"
	"bridge/internal/sim"
)

// Config parameterizes the Bridge Server.
type Config struct {
	// Node is the processor the server runs on (conventionally 0, a node
	// without a disk).
	Node msg.NodeID
	// OpCPU is processor time charged per request at the server.
	// Default 500µs.
	OpCPU time.Duration
	// LFSTimeout bounds every call the server makes to an LFS instance,
	// so a failed node surfaces as an error instead of a hang. The
	// default (60s simulated) comfortably exceeds the longest legitimate
	// operation.
	LFSTimeout time.Duration
	// PortName overrides the server's port (default PortName). Used
	// when several Bridge Server processes share the cluster: "in our
	// implementation the Bridge Server is a single centralized process,
	// though this need not be the case".
	PortName string
	// IDBase and IDStride partition the file-id space between servers
	// so their LFS file ids never collide. Defaults: 0 and 1.
	IDBase   uint32
	IDStride uint32
	// LFSRetry, when set, retransmits timed-out single-block LFS calls
	// (reads, writes, stats) under the policy. Off by default.
	LFSRetry *RetryPolicy
	// Health, when set, runs a heartbeat monitor over the storage nodes
	// and fast-fails calls to nodes it has declared dead. Off by default.
	Health *HealthConfig
	// ReadAhead, when positive, buffers sequential reads in windows of
	// ReadAhead stripes (ReadAhead×p blocks) per (client, file) and
	// prefetches the next window asynchronously. Off by default so the
	// naive per-block path keeps the paper's measured behavior.
	ReadAhead int
	// WriteBehind, when positive, acknowledges sequential appends to
	// formulaic files as soon as they are buffered and flushes them in
	// windows of WriteBehind stripes (WriteBehind×p blocks) as vectored
	// group commits, overlapping one window's flush with the next window's
	// fill. Every read, overwrite, or size query drains the buffer first;
	// Flush is the explicit durability barrier. Off by default.
	WriteBehind int
}

func (c *Config) applyDefaults() {
	if c.OpCPU == 0 {
		c.OpCPU = 500 * time.Microsecond
	}
	if c.LFSTimeout == 0 {
		c.LFSTimeout = 60 * time.Second
	}
	if c.PortName == "" {
		c.PortName = PortName
	}
	if c.IDStride == 0 {
		c.IDStride = 1
	}
}

// Server is the Bridge Server: a single centralized process, as in the
// prototype ("though this need not be the case").
type Server struct {
	net   *msg.Network
	cfg   Config
	nodes []msg.NodeID
	port  *msg.Port

	lc      *msg.Client // for talking to LFS instances; owned by the server process
	dir     map[string]*dirent
	cursors map[cursorKey]*cursor
	jobs    map[uint64]*job
	nextID  uint32
	nextJob uint64

	retry     *retrier       // nil = no LFS retransmission
	health    *healthTracker // nil = no monitoring
	ra        *raCache       // nil = no read-ahead
	wb        *wbCache       // nil = no write-behind
	monStop   *msg.Port
	nextLFSOp uint64
	dedup     map[dedupKey]any
	dedupQ    []dedupKey

	m srvMetrics
	// curSpan is the span of the request currently being dispatched; the
	// server is single-threaded, so retry paths deep in the call tree can
	// annotate it without plumbing. Zero between requests or when tracing
	// is off.
	curSpan obs.SpanRef
}

// dedupKey identifies one client operation for retransmission dedup.
type dedupKey struct {
	client msg.Addr
	op     uint64
}

// dedupCap bounds the reply cache; old entries evict FIFO. It only needs
// to cover replies whose retransmissions may still be in flight.
const dedupCap = 2048

type dirent struct {
	meta  Meta
	hints map[msg.NodeID]int32
}

type cursorKey struct {
	client msg.Addr
	name   string
}

type cursor struct {
	readPos int64
	// chain is the location of the next block to read in a disordered
	// file (valid when chainValid is set); it lets sequential reads
	// follow the chain at one LFS read per block.
	chain      chainLoc
	chainValid bool
}

type job struct {
	id      uint64
	name    string
	workers []msg.Addr
	readPos int64
	port    *msg.Port
}

// DirSnapshot is a serializable image of the Bridge directory, used by the
// bridgefs command to persist a cluster across invocations.
type DirSnapshot struct {
	NextID  uint32
	NextJob uint64
	Files   []Meta
}

// Snapshot exports the directory. Only call after the simulation has
// drained (the server process has exited); the server is single-threaded
// and its state must not be read while it runs.
func (s *Server) Snapshot() DirSnapshot {
	snap := DirSnapshot{NextID: s.nextID, NextJob: s.nextJob}
	names := make([]string, 0, len(s.dir))
	for name := range s.dir {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		snap.Files = append(snap.Files, s.dir[name].meta)
	}
	return snap
}

// Restore seeds the directory from a snapshot. Only call before Wait
// starts the simulation.
func (s *Server) Restore(snap DirSnapshot) {
	s.nextID = snap.NextID
	s.nextJob = snap.NextJob
	for _, meta := range snap.Files {
		s.dir[meta.Name] = &dirent{meta: meta, hints: make(map[msg.NodeID]int32)}
	}
}

// StartServer creates the Bridge Server process. nodes lists the storage
// nodes in interleaving order.
func StartServer(rt sim.Runtime, net *msg.Network, cfg Config, nodes []msg.NodeID) *Server {
	s := newServer(net, cfg, nodes)
	if s.health != nil {
		s.startMonitor(rt)
	}
	rt.Go(s.port.Addr().String(), func(p sim.Proc) { s.run(p) })
	return s
}

// newServer builds a Server without spawning its request loop or health
// monitor. The replicated server embeds one as its directory state machine
// and LFS effect engine, driving a different loop on the same port.
func newServer(net *msg.Network, cfg Config, nodes []msg.NodeID) *Server {
	cfg.applyDefaults()
	s := &Server{
		net:     net,
		cfg:     cfg,
		nodes:   append([]msg.NodeID(nil), nodes...),
		port:    net.NewPort(msg.Addr{Node: cfg.Node, Port: cfg.PortName}),
		dir:     make(map[string]*dirent),
		cursors: make(map[cursorKey]*cursor),
		jobs:    make(map[uint64]*job),
		dedup:   make(map[dedupKey]any),
		m:       newSrvMetrics(net.Stats()),
	}
	if cfg.LFSRetry != nil {
		// Fold the port name into the jitter seed so the servers of a
		// distributed cluster, which share one policy, do not retransmit
		// in lockstep.
		s.retry = newRetrier(cfg.LFSRetry.WithSeed(0, cfg.PortName))
	}
	if cfg.Health != nil {
		s.health = newHealthTracker(*cfg.Health)
	}
	if cfg.ReadAhead > 0 {
		s.ra = newRACache(cfg.ReadAhead)
	}
	if cfg.WriteBehind > 0 {
		s.wb = newWBCache(cfg.WriteBehind)
	}
	return s
}

// Addr returns the server's request address.
func (s *Server) Addr() msg.Addr { return s.port.Addr() }

// Stop closes the server port; the server process exits after draining.
// The health monitor, if any, stops with it.
func (s *Server) Stop() {
	s.port.Close()
	if s.monStop != nil {
		s.monStop.Close()
	}
}

func (s *Server) run(p sim.Proc) {
	s.lc = msg.NewClient(p, s.net, s.cfg.Node, s.cfg.PortName+".lfscli")
	for {
		req, ok := s.port.Recv(p)
		if !ok {
			// Close job ports in job-id order: closing unblocks their
			// workers, and that order is observable virtual-time state.
			ids := make([]uint64, 0, len(s.jobs))
			for id := range s.jobs {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			for _, id := range ids {
				s.jobs[id].port.Close()
			}
			s.lc.Close()
			return
		}
		rec := s.net.Recorder()
		if rec != nil {
			at := p.Now()
			sp := rec.Start(at, req.Trace, req.Span, "server."+opName(req.Body), int(s.cfg.Node))
			sp.SetQueueWait(s.net.QueueWait(at, req))
			s.curSpan = sp
			// LFS calls made while handling this request parent under it.
			s.lc.SetTrace(req.Trace, sp.ID())
		}
		if s.cfg.OpCPU > 0 {
			p.Sleep(s.cfg.OpCPU)
		}
		body := s.dispatch(p, req)
		_ = s.net.Send(p, s.cfg.Node, req.From, &msg.Message{
			From:  s.port.Addr(),
			ReqID: req.ReqID,
			Body:  body,
			Size:  WireSize(body),
			Trace: req.Trace,
			Span:  req.Span,
		})
		if rec != nil {
			s.curSpan.EndErr(p.Now(), respErrAny(body))
			s.curSpan = obs.SpanRef{}
			s.lc.SetTrace(0, 0)
		}
	}
}

// opIDOf extracts the dedup operation id from requests that carry one.
func opIDOf(body any) (uint64, bool) {
	switch b := body.(type) {
	case CreateReq:
		return b.OpID, true
	case DeleteReq:
		return b.OpID, true
	case RenameReq:
		return b.OpID, true
	case SeqReadReq:
		return b.OpID, true
	case SeqReadNReq:
		return b.OpID, true
	case SeqWriteReq:
		return b.OpID, true
	case RandWriteReq:
		return b.OpID, true
	case RandWriteNReq:
		return b.OpID, true
	case RepairNodeReq:
		return b.OpID, true
	case FsckReq:
		return b.OpID, true
	case FlushReq:
		return b.OpID, true
	case ReleaseReq:
		return b.OpID, true
	default:
		return 0, false
	}
}

// respErr returns the transported error string of a cacheable reply.
func respErr(body any) string {
	switch b := body.(type) {
	case CreateResp:
		return b.Err
	case DeleteResp:
		return b.Err
	case RenameResp:
		return b.Err
	case SeqReadResp:
		return b.Err
	case SeqReadNResp:
		return b.Err
	case SeqWriteResp:
		return b.Err
	case RandWriteResp:
		return b.Err
	case RandWriteNResp:
		return b.Err
	case RepairNodeResp:
		return b.Err
	case FsckResp:
		return b.Err
	case RecoveryResp:
		return b.Err
	case FlushResp:
		return b.Err
	case ReleaseResp:
		return b.Err
	default:
		return ""
	}
}

// dispatch wraps handle with retransmission dedup: a request whose
// (client, OpID) was already executed successfully gets the cached reply,
// so lost replies and duplicated messages never re-run a mutation.
func (s *Server) dispatch(p sim.Proc, req *msg.Message) any {
	op, hasOp := opIDOf(req.Body)
	if !hasOp || op == 0 {
		return s.handle(p, req)
	}
	key := dedupKey{client: req.From, op: op}
	if cached, hit := s.dedup[key]; hit {
		s.m.dedupHits.Add(1)
		s.curSpan.Annotate("dedup hit")
		return cached
	}
	body := s.handle(p, req)
	// Cache successes only: a failed attempt should be re-executable.
	if respErr(body) == "" {
		if len(s.dedupQ) >= dedupCap {
			delete(s.dedup, s.dedupQ[0])
			s.dedupQ = s.dedupQ[1:]
		}
		s.dedup[key] = body
		s.dedupQ = append(s.dedupQ, key)
	}
	return body
}

func (s *Server) handle(p sim.Proc, req *msg.Message) any {
	switch r := req.Body.(type) {
	case CreateReq:
		meta, err := s.create(p, r)
		return CreateResp{Meta: meta, Err: errString(err)}
	case DeleteReq:
		freed, err := s.delete(p, r.Name)
		return DeleteResp{Freed: freed, Err: errString(err)}
	case RenameReq:
		meta, err := s.rename(p, r.Name, r.NewName)
		return RenameResp{Meta: meta, Err: errString(err)}
	case OpenReq:
		meta, err := s.open(p, req.From, r.Name)
		return OpenResp{Meta: meta, Err: errString(err)}
	case StatReq:
		meta, err := s.stat(p, r.Name)
		return StatResp{Meta: meta, Err: errString(err)}
	case FlushReq:
		flushed, err := s.flush(p, r.Name)
		return FlushResp{Flushed: flushed, Err: errString(err)}
	case ReleaseReq:
		meta, err := s.release(p, r.Name)
		return ReleaseResp{Meta: meta, Err: errString(err)}
	case SeqReadReq:
		data, eof, err := s.seqRead(p, req.From, r.Name)
		return SeqReadResp{Data: data, EOF: eof, Err: errString(err)}
	case SeqReadNReq:
		blocks, eof, err := s.seqReadN(p, req.From, r.Name, r.Max)
		return SeqReadNResp{Blocks: blocks, EOF: eof, Err: errString(err)}
	case SeqWriteReq:
		err := s.writeAt(p, r.Name, -1, r.Data)
		return SeqWriteResp{Err: errString(err)}
	case RandReadReq:
		data, err := s.readAt(p, r.Name, r.BlockNum)
		return RandReadResp{Data: data, Err: errString(err)}
	case RandReadNReq:
		blocks, err := s.readAtN(p, r.Name, r.BlockNum, r.Count)
		return RandReadNResp{Blocks: blocks, Err: errString(err)}
	case RandWriteReq:
		err := s.writeAt(p, r.Name, r.BlockNum, r.Data)
		return RandWriteResp{Err: errString(err)}
	case RandWriteNReq:
		written, err := s.writeAtN(p, r.Name, r.BlockNum, r.Blocks)
		return RandWriteNResp{Written: written, Err: errString(err)}
	case ParallelOpenReq:
		return s.parallelOpen(p, r)
	case ParallelReadReq:
		delivered, eof, err := s.parallelRead(p, r.JobID)
		return ParallelReadResp{Delivered: delivered, EOF: eof, Err: errString(err)}
	case ParallelWriteReq:
		written, err := s.parallelWrite(p, r.JobID)
		return ParallelWriteResp{Written: written, Err: errString(err)}
	case CloseJobReq:
		if j, ok := s.jobs[r.JobID]; ok {
			j.port.Close()
			delete(s.jobs, r.JobID)
			return CloseJobResp{}
		}
		return CloseJobResp{Err: ErrNoJob.Error()}
	case ListReq:
		names := make([]string, 0, len(s.dir))
		for name := range s.dir {
			names = append(names, name)
		}
		sort.Strings(names)
		return ListResp{Names: names}
	case GetInfoReq:
		return GetInfoResp{Info: Info{
			P:      len(s.nodes),
			Nodes:  append([]msg.NodeID(nil), s.nodes...),
			Server: s.port.Addr(),
		}}
	case HealthReq:
		if s.health == nil {
			states := make([]NodeHealth, len(s.nodes))
			for i, n := range s.nodes {
				states[i] = NodeHealth{Node: n, State: Healthy}
			}
			return HealthResp{States: states}
		}
		return HealthResp{States: s.health.snapshot(s.nodes)}
	case RepairNodeReq:
		files, err := s.repairNode(p, r.Node)
		return RepairNodeResp{Files: files, Err: errString(err)}
	case FsckReq:
		rep, fixes, err := s.fsck(p, r)
		return FsckResp{Report: rep, Fixes: fixes, Err: errString(err)}
	case ScrubReq:
		rep, err := s.scrub(p, r.Node)
		return ScrubResp{Report: rep, Err: errString(err)}
	case RecoveryReq:
		rep, err := s.recovery(p, r.Node)
		return RecoveryResp{Report: rep, Err: errString(err)}
	default:
		return CloseJobResp{Err: fmt.Sprintf("bridge: unknown request %T", req.Body)}
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// create allocates a file id, builds the placement, and creates the
// constituent LFS file on every node.
func (s *Server) create(p sim.Proc, r CreateReq) (Meta, error) {
	meta, next, err := s.planCreate(r)
	// Ids burn on placement failures past the allocation point, matching
	// the historical behavior; planCreate reports how far it got.
	s.nextID = next
	if err != nil {
		return Meta{}, err
	}
	if err := s.lfsCreate(p, meta.Nodes, meta.LFSFileID, r.Tree, false); err != nil {
		return Meta{}, err
	}
	s.dir[r.Name] = &dirent{meta: meta, hints: make(map[msg.NodeID]int32)}
	return meta, nil
}

// planCreate validates a create request against the current directory and
// resolves its placement without touching any state: it returns the
// metadata the file would get and the id counter value the caller must
// adopt (advanced past the allocation point even on late errors, so the
// single server's id-burning behavior is preserved). The replicated
// server runs the same plan, ships the result through the log, and every
// replica applies the identical insert.
func (s *Server) planCreate(r CreateReq) (Meta, uint32, error) {
	next := s.nextID
	if r.Name == "" {
		return Meta{}, next, fmt.Errorf("%w: empty name", ErrBadArg)
	}
	if _, dup := s.dir[r.Name]; dup {
		return Meta{}, next, fmt.Errorf("%w: %s", ErrExists, r.Name)
	}
	spec := r.Spec
	if spec.Kind == 0 {
		spec.Kind = distrib.RoundRobin
	}
	if spec.P == 0 {
		spec.P = len(s.nodes)
	}
	if spec.P > len(s.nodes) {
		return Meta{}, next, fmt.Errorf("%w: P %d exceeds cluster size %d", ErrBadArg, spec.P, len(s.nodes))
	}
	if spec.Kind == distrib.Chunked && spec.TotalBlocks == 0 {
		return Meta{}, next, distrib.ErrNeedSize
	}
	if spec.Kind != distrib.Disordered {
		if _, err := distrib.New(spec); err != nil {
			return Meta{}, next, err
		}
	}
	next++
	fileID := s.cfg.IDBase + next*s.cfg.IDStride
	nodes := append([]msg.NodeID(nil), s.nodes[:spec.P]...)
	if len(r.Subset) > 0 {
		if len(r.Subset) != spec.P {
			return Meta{}, next, fmt.Errorf("%w: subset of %d nodes for P=%d", ErrBadArg, len(r.Subset), spec.P)
		}
		nodes = nodes[:0]
		for _, idx := range r.Subset {
			if idx < 0 || idx >= len(s.nodes) {
				return Meta{}, next, fmt.Errorf("%w: subset index %d out of range", ErrBadArg, idx)
			}
			nodes = append(nodes, s.nodes[idx])
		}
	}
	meta := Meta{
		Name:      r.Name,
		FileID:    fileID,
		LFSFileID: fileID,
		Spec:      spec,
		Nodes:     nodes,
	}
	if spec.Kind == distrib.Disordered {
		meta.Chain = &ChainInfo{LocalCounts: make([]int64, spec.P)}
	}
	return meta, next, nil
}

// lfsCreate creates the constituent LFS file on every placement node —
// starting all the LFS operations before waiting for them, with
// sequential initiation (the paper's measured behavior), or through the
// embedded binary tree when tree is set. tolerateExists makes it
// idempotent for replay after a leader failover.
func (s *Server) lfsCreate(p sim.Proc, nodes []msg.NodeID, fileID uint32, tree, tolerateExists bool) error {
	op := lfs.CreateReq{FileID: fileID}
	if tree {
		if err := lfs.TreeBroadcast(s.lc, nodes, op, lfs.WireSize(op)); err != nil {
			return fmt.Errorf("%w: %v", ErrLFSFailed, err)
		}
		return nil
	}
	ids := make([]uint64, 0, len(nodes))
	for _, n := range nodes {
		id, err := s.lc.Start(msg.Addr{Node: n, Port: lfs.PortName}, op, lfs.WireSize(op))
		if err != nil {
			return fmt.Errorf("%w: %v", ErrLFSFailed, err)
		}
		ids = append(ids, id)
	}
	ms, err := s.lc.GatherTimeout(ids, s.cfg.LFSTimeout)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrLFSFailed, err)
	}
	for _, m := range ms {
		if err := m.Body.(lfs.CreateResp).Status.Err(); err != nil {
			if tolerateExists && errors.Is(err, efs.ErrExists) {
				continue
			}
			return fmt.Errorf("%w: %v", ErrLFSFailed, err)
		}
	}
	return nil
}

// delete removes the constituent LFS files in parallel; each LFS traverses
// its local chain freeing blocks, so the operation takes O(n/p).
func (s *Server) delete(p sim.Proc, name string) (int, error) {
	ent, ok := s.dir[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	s.raInvalidate(name)
	s.wbDrop(p, ent)
	op := lfs.DeleteReq{FileID: ent.meta.LFSFileID}
	ids := make([]uint64, 0, len(ent.meta.Nodes))
	for _, n := range ent.meta.Nodes {
		id, err := s.lc.Start(msg.Addr{Node: n, Port: lfs.PortName}, op, lfs.WireSize(op))
		if err != nil {
			return 0, fmt.Errorf("%w: %v", ErrLFSFailed, err)
		}
		ids = append(ids, id)
	}
	ms, gerr := s.lc.GatherTimeout(ids, s.cfg.LFSTimeout)
	freed := 0
	var firstErr error
	for _, m := range ms {
		if m == nil {
			continue
		}
		resp := m.Body.(lfs.DeleteResp)
		freed += resp.Freed
		if err := resp.Status.Err(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if gerr != nil && firstErr == nil {
		firstErr = gerr
	}
	delete(s.dir, name)
	for k := range s.cursors {
		if k.name == name {
			delete(s.cursors, k)
		}
	}
	if firstErr != nil {
		return freed, fmt.Errorf("%w: %v", ErrLFSFailed, firstErr)
	}
	return freed, nil
}

// rename moves a file to a new name. The constituent LFS files are keyed
// by file id, not name, so this is a pure directory mutation: no storage
// node is touched. Dirty write-behind state is drained first so a deferred
// failure surfaces against the name the writes were acknowledged under.
func (s *Server) rename(p sim.Proc, name, newName string) (Meta, error) {
	if name == "" || newName == "" {
		return Meta{}, fmt.Errorf("%w: empty name", ErrBadArg)
	}
	ent, ok := s.dir[name]
	if !ok {
		return Meta{}, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if newName == name {
		return ent.meta, nil
	}
	if _, exists := s.dir[newName]; exists {
		return Meta{}, fmt.Errorf("%w: %s", ErrExists, newName)
	}
	if _, err := s.wbBarrier(p, ent); err != nil {
		return Meta{}, err
	}
	s.raInvalidate(name)
	delete(s.dir, name)
	ent.meta.Name = newName
	s.dir[newName] = ent
	// Re-key open cursors so sequential readers keep their position.
	for k, c := range s.cursors {
		if k.name == name {
			delete(s.cursors, k)
			nk := k
			nk.name = newName
			s.cursors[nk] = c
		}
	}
	return ent.meta, nil
}

// flush drains the write-behind state of one file (or of every file when
// name is empty) and then syncs the touched storage nodes, making every
// acknowledged write durable. It is the explicit group-commit barrier; a
// deferred write failure surfaces here, wrapped in ErrDeferredWrite.
func (s *Server) flush(p sim.Proc, name string) (int, error) {
	if name == "" {
		flushed, err := s.wbBarrierAll(p)
		if err != nil {
			return flushed, err
		}
		return flushed, s.syncNodes(p, s.nodes)
	}
	ent, ok := s.dir[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	flushed, err := s.wbBarrier(p, ent)
	if err != nil {
		return flushed, err
	}
	return flushed, s.syncNodes(p, ent.meta.Nodes)
}

// syncNodes issues a parallel metadata sync to the given storage nodes —
// the scatter-gather barrier behind an explicit Flush.
func (s *Server) syncNodes(p sim.Proc, nodes []msg.NodeID) error {
	op := lfs.SyncReq{}
	ids := make([]uint64, 0, len(nodes))
	for _, n := range nodes {
		if s.health != nil && s.health.get(n) == Dead {
			return fmt.Errorf("%w: n%d", ErrNodeDown, n)
		}
		id, err := s.lc.Start(msg.Addr{Node: n, Port: lfs.PortName}, op, lfs.WireSize(op))
		if err != nil {
			return fmt.Errorf("%w: %v", ErrLFSFailed, err)
		}
		ids = append(ids, id)
	}
	ms, err := s.lc.GatherTimeout(ids, s.cfg.LFSTimeout)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrLFSFailed, err)
	}
	for _, m := range ms {
		if err := m.Body.(lfs.SyncResp).Status.Err(); err != nil {
			return fmt.Errorf("%w: %v", ErrLFSFailed, err)
		}
	}
	return nil
}

// release atomically unregisters a file from the Bridge directory and
// returns its final metadata, without touching the constituent LFS files:
// the caller — the toolkit's parallel delete — owns freeing them on the
// nodes. Write-behind state is quiesced and dropped (the file is being
// destroyed), cursors and read-ahead windows are discarded.
func (s *Server) release(p sim.Proc, name string) (Meta, error) {
	ent, ok := s.dir[name]
	if !ok {
		return Meta{}, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	s.raInvalidate(name)
	s.wbDrop(p, ent)
	meta := ent.meta
	delete(s.dir, name)
	for k := range s.cursors {
		if k.name == name {
			delete(s.cursors, k)
		}
	}
	return meta, nil
}

// refreshSize recomputes the file's block count by statting every
// constituent LFS file in parallel — the startup work that Open pays for.
// Disordered files keep their count in the chain state (tools cannot write
// them behind the server's back, since only the server knows the chain).
func (s *Server) refreshSize(p sim.Proc, ent *dirent) error {
	if _, err := s.wbBarrier(p, ent); err != nil {
		return err
	}
	if ent.meta.Spec.Kind == distrib.Disordered {
		var total int64
		for _, c := range ent.meta.Chain.LocalCounts {
			total += c
		}
		ent.meta.Blocks = total
		return nil
	}
	op := lfs.StatReq{FileID: ent.meta.LFSFileID}
	ids := make([]uint64, 0, len(ent.meta.Nodes))
	for _, n := range ent.meta.Nodes {
		if s.health != nil && s.health.get(n) == Dead {
			return fmt.Errorf("%w: n%d", ErrNodeDown, n)
		}
		id, err := s.lc.Start(msg.Addr{Node: n, Port: lfs.PortName}, op, lfs.WireSize(op))
		if err != nil {
			return fmt.Errorf("%w: %v", ErrLFSFailed, err)
		}
		ids = append(ids, id)
	}
	ms, err := s.lc.GatherTimeout(ids, s.cfg.LFSTimeout)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrLFSFailed, err)
	}
	var total int64
	for _, m := range ms {
		resp := m.Body.(lfs.StatResp)
		if err := resp.Status.Err(); err != nil {
			return fmt.Errorf("%w: %v", ErrLFSFailed, err)
		}
		total += int64(resp.Info.Blocks)
	}
	ent.meta.Blocks = total
	return nil
}

func (s *Server) open(p sim.Proc, client msg.Addr, name string) (Meta, error) {
	ent, ok := s.dir[name]
	if !ok {
		return Meta{}, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if err := s.refreshSize(p, ent); err != nil {
		return Meta{}, err
	}
	s.cursors[cursorKey{client: client, name: name}] = &cursor{}
	return ent.meta, nil
}

func (s *Server) stat(p sim.Proc, name string) (Meta, error) {
	ent, ok := s.dir[name]
	if !ok {
		return Meta{}, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if err := s.refreshSize(p, ent); err != nil {
		return Meta{}, err
	}
	return ent.meta, nil
}

// lfsCall is the single-block LFS call path: it fast-fails on nodes the
// health monitor has declared dead, retransmits timeouts under the
// configured retry policy (the body — and so any LFS OpID in it — is
// reused verbatim), and reports full timeouts to the health tracker.
func (s *Server) lfsCall(p sim.Proc, node msg.NodeID, body any, size int) (*msg.Message, error) {
	if s.health != nil && s.health.get(node) == Dead {
		return nil, fmt.Errorf("%w: n%d", ErrNodeDown, node)
	}
	to := msg.Addr{Node: node, Port: lfs.PortName}
	m, err := s.lc.CallTimeout(to, body, size, s.cfg.LFSTimeout)
	if s.retry != nil {
		for retry := 1; retry < s.retry.p.Attempts && errors.Is(err, msg.ErrTimeout); retry++ {
			p.Sleep(s.retry.backoff(retry))
			s.m.lfsRetries.Add(1)
			s.curSpan.Annotate(fmt.Sprintf("lfs retry %d n%d", retry, node))
			if s.health != nil && s.health.get(node) == Dead {
				return nil, fmt.Errorf("%w: n%d", ErrNodeDown, node)
			}
			m, err = s.lc.CallTimeout(to, body, size, s.cfg.LFSTimeout)
		}
	}
	if errors.Is(err, msg.ErrTimeout) {
		s.reportProbe(p.Now(), node, false)
	}
	return m, err
}

// nodeIndex maps a storage node's network ID back to its 0-based cluster
// index (its position in interleaving order), or -1 if unknown.
func (s *Server) nodeIndex(id msg.NodeID) int {
	for i, n := range s.nodes {
		if n == id {
			return i
		}
	}
	return -1
}

// lfsRead fetches one global block through the right LFS and returns its
// payload.
func (s *Server) lfsRead(p sim.Proc, ent *dirent, blockNum int64) ([]byte, error) {
	l, err := ent.meta.Layout()
	if err != nil {
		return nil, err
	}
	node := ent.meta.Nodes[l.NodeFor(blockNum)]
	local := l.LocalFor(blockNum)
	req := lfs.ReadReq{FileID: ent.meta.LFSFileID, BlockNum: uint32(local), Hint: ent.hintFor(node)}
	m, err := s.lfsCall(p, node, req, lfs.WireSize(req))
	if err != nil {
		if errors.Is(err, ErrNodeDown) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", ErrLFSFailed, err)
	}
	resp := m.Body.(lfs.ReadResp)
	if err := resp.Status.Err(); err != nil {
		if errors.Is(err, efs.ErrCorrupt) {
			// Integrity failures name the exact node and block: for an
			// unreplicated file this is the fail-fast diagnostic; for a
			// replicated one the replica layer uses it to repair. The node
			// is named by its cluster index — the space Fsck, Scrub, and
			// RepairNode operate in.
			return nil, fmt.Errorf("%w: node %d lfs file %d local block %d (global block %d): %v",
				ErrLFSFailed, s.nodeIndex(node), ent.meta.LFSFileID, local, blockNum, err)
		}
		return nil, fmt.Errorf("%w: %v", ErrLFSFailed, err)
	}
	ent.hints[node] = resp.Addr
	_, payload, err := DecodeBlock(resp.Data)
	if err != nil {
		return nil, err
	}
	return payload, nil
}

func (ent *dirent) hintFor(node msg.NodeID) int32 {
	if h, ok := ent.hints[node]; ok {
		return h
	}
	return -1
}

// lfsWrite stores one global block through the right LFS.
func (s *Server) lfsWrite(p sim.Proc, ent *dirent, blockNum int64, payload []byte) error {
	if len(payload) > PayloadBytes {
		return fmt.Errorf("%w: payload %d exceeds %d", ErrBadArg, len(payload), PayloadBytes)
	}
	l, err := ent.meta.Layout()
	if err != nil {
		return err
	}
	node := ent.meta.Nodes[l.NodeFor(blockNum)]
	local := l.LocalFor(blockNum)
	data := EncodeBlock(BlockHeader{
		FileID:      ent.meta.FileID,
		GlobalBlock: blockNum,
		P:           uint16(ent.meta.Spec.P),
		Start:       uint16(ent.meta.Spec.Start),
	}, payload)
	s.nextLFSOp++
	req := lfs.WriteReq{FileID: ent.meta.LFSFileID, BlockNum: uint32(local), Data: data, Hint: ent.hintFor(node), OpID: s.nextLFSOp}
	m, err := s.lfsCall(p, node, req, lfs.WireSize(req))
	if err != nil {
		if errors.Is(err, ErrNodeDown) {
			return err
		}
		return fmt.Errorf("%w: %v", ErrLFSFailed, err)
	}
	resp := m.Body.(lfs.WriteResp)
	if err := resp.Status.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrLFSFailed, err)
	}
	ent.hints[node] = resp.Addr
	return nil
}

// repairNode re-registers on storage node index idx the LFS file of every
// Bridge file placed there. A restarted node's EFS directory reverts to
// its last-synced state, so files created after that sync are gone at the
// LFS level even though the Bridge directory still lists them; re-creating
// them (tolerating "exists" for the survivors) makes every placement
// reachable again, with the lost blocks left for replica-layer repair.
// Iteration is in sorted name order so chaos runs replay deterministically.
func (s *Server) repairNode(p sim.Proc, idx int) (int, error) {
	if idx < 0 || idx >= len(s.nodes) {
		return 0, fmt.Errorf("%w: node index %d of %d", ErrBadArg, idx, len(s.nodes))
	}
	node := s.nodes[idx]
	// Acknowledged writes must land (or fail visibly) before the sweep
	// re-registers files: an in-flight group commit to the restarted node
	// surfaces here as a deferred-write error rather than being lost.
	if _, err := s.wbBarrierAll(p); err != nil {
		return 0, err
	}
	if s.ra != nil {
		// Any buffered or in-flight block might predate the crash.
		s.ra.invalidateAll(s)
	}
	names := make([]string, 0, len(s.dir))
	for name := range s.dir {
		names = append(names, name)
	}
	sort.Strings(names)
	repaired := 0
	for _, name := range names {
		ent := s.dir[name]
		placed := false
		for _, n := range ent.meta.Nodes {
			if n == node {
				placed = true
				break
			}
		}
		if !placed {
			continue
		}
		op := lfs.CreateReq{FileID: ent.meta.LFSFileID}
		m, err := s.lc.CallTimeout(msg.Addr{Node: node, Port: lfs.PortName}, op, lfs.WireSize(op), s.cfg.LFSTimeout)
		if err != nil {
			return repaired, fmt.Errorf("%w: %v", ErrLFSFailed, err)
		}
		if err := m.Body.(lfs.CreateResp).Status.Err(); err != nil && !errors.Is(err, efs.ErrExists) {
			return repaired, fmt.Errorf("%w: %v", ErrLFSFailed, err)
		}
		// Any cached block-address hint for this node predates the crash.
		delete(ent.hints, node)
		repaired++
	}
	s.m.nodeRepairs.Add(1)
	return repaired, nil
}

// fsck runs the LFS-level consistency checker on one storage node.
func (s *Server) fsck(p sim.Proc, r FsckReq) (efs.CheckReport, int, error) {
	if r.Node < 0 || r.Node >= len(s.nodes) {
		return efs.CheckReport{}, 0, fmt.Errorf("%w: node index %d of %d", ErrBadArg, r.Node, len(s.nodes))
	}
	// Drain write-behind first so the checker sees every acknowledged block.
	if _, err := s.wbBarrierAll(p); err != nil {
		return efs.CheckReport{}, 0, err
	}
	req := lfs.CheckReq{Repair: r.Repair}
	m, err := s.lfsCall(p, s.nodes[r.Node], req, lfs.WireSize(req))
	if err != nil {
		return efs.CheckReport{}, 0, fmt.Errorf("%w: %v", ErrLFSFailed, err)
	}
	resp := m.Body.(lfs.CheckResp)
	return resp.Report, resp.Fixes, resp.Status.Err()
}

// recovery fetches one storage node's boot recovery report.
func (s *Server) recovery(p sim.Proc, idx int) (lfs.RecoveryReport, error) {
	if idx < 0 || idx >= len(s.nodes) {
		return lfs.RecoveryReport{}, fmt.Errorf("%w: node index %d of %d", ErrBadArg, idx, len(s.nodes))
	}
	req := lfs.RecoveryReq{}
	m, err := s.lfsCall(p, s.nodes[idx], req, lfs.WireSize(req))
	if err != nil {
		return lfs.RecoveryReport{}, fmt.Errorf("%w: %v", ErrLFSFailed, err)
	}
	resp := m.Body.(lfs.RecoveryResp)
	return resp.Report, resp.Status.Err()
}

// scrub runs a full checksum-verification sweep on one storage node.
func (s *Server) scrub(p sim.Proc, idx int) (efs.ScrubReport, error) {
	if idx < 0 || idx >= len(s.nodes) {
		return efs.ScrubReport{}, fmt.Errorf("%w: node index %d of %d", ErrBadArg, idx, len(s.nodes))
	}
	// Drain write-behind first so the sweep sees every acknowledged block.
	if _, err := s.wbBarrierAll(p); err != nil {
		return efs.ScrubReport{}, err
	}
	req := lfs.ScrubReq{Full: true}
	m, err := s.lfsCall(p, s.nodes[idx], req, lfs.WireSize(req))
	if err != nil {
		return efs.ScrubReport{}, fmt.Errorf("%w: %v", ErrLFSFailed, err)
	}
	resp := m.Body.(lfs.ScrubResp)
	return resp.Report, resp.Status.Err()
}

func (s *Server) seqRead(p sim.Proc, client msg.Addr, name string) ([]byte, bool, error) {
	ent, ok := s.dir[name]
	if !ok {
		return nil, false, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if _, err := s.wbBarrier(p, ent); err != nil {
		return nil, false, err
	}
	key := cursorKey{client: client, name: name}
	cur, ok := s.cursors[key]
	if !ok {
		// Implicit open: the open operation is only a hint, so a read
		// without one still works; it just pays the size refresh here.
		if err := s.refreshSize(p, ent); err != nil {
			return nil, false, err
		}
		cur = &cursor{}
		s.cursors[key] = cur
	}
	if cur.readPos >= ent.meta.Blocks {
		return nil, true, nil
	}
	if ent.meta.Spec.Kind == distrib.Disordered {
		var (
			payload []byte
			next    chainLoc
			hasNext bool
			err     error
		)
		if cur.chainValid {
			payload, next, hasNext, err = s.readChainBlock(p, ent, cur.chain)
		} else {
			payload, next, hasNext, err = s.readChainAt(p, ent, cur.readPos)
		}
		if err != nil {
			return nil, false, err
		}
		cur.chain, cur.chainValid = next, hasNext
		cur.readPos++
		return payload, false, nil
	}
	var (
		data []byte
		err  error
	)
	if s.ra != nil {
		var blocks [][]byte
		blocks, err = s.ra.read(p, s, ent, client, cur.readPos, 1)
		if err == nil {
			data = blocks[0]
		}
	} else {
		data, err = s.lfsRead(p, ent, cur.readPos)
	}
	if err != nil {
		return nil, false, err
	}
	cur.readPos++
	return data, false, nil
}

// writeAt writes block blockNum, or appends when blockNum is -1 or equals
// the current size.
func (s *Server) writeAt(p sim.Proc, name string, blockNum int64, payload []byte) error {
	ent, ok := s.dir[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	s.raInvalidate(name)
	if blockNum < 0 || blockNum == ent.meta.Blocks {
		if ent.meta.Spec.Kind == distrib.Disordered {
			return s.appendDisordered(p, ent, payload)
		}
		if s.wb != nil {
			return s.wbAppend(p, ent, payload)
		}
		if err := s.lfsWrite(p, ent, ent.meta.Blocks, payload); err != nil {
			return err
		}
		ent.meta.Blocks++
		return nil
	}
	if blockNum > ent.meta.Blocks {
		return fmt.Errorf("%w: block %d beyond size %d", ErrBadArg, blockNum, ent.meta.Blocks)
	}
	// Overwrites go straight to the LFS layer, so the write-behind state —
	// which may still own the target block — drains first. The barrier can
	// shrink the file on a deferred failure, hence the re-check.
	if _, err := s.wbBarrier(p, ent); err != nil {
		return err
	}
	if blockNum >= ent.meta.Blocks {
		return fmt.Errorf("%w: block %d beyond size %d", ErrBadArg, blockNum, ent.meta.Blocks)
	}
	if ent.meta.Spec.Kind == distrib.Disordered {
		return s.overwriteDisordered(p, ent, blockNum, payload)
	}
	return s.lfsWrite(p, ent, blockNum, payload)
}

func (s *Server) readAt(p sim.Proc, name string, blockNum int64) ([]byte, error) {
	ent, ok := s.dir[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if _, err := s.wbBarrier(p, ent); err != nil {
		return nil, err
	}
	if blockNum < 0 || blockNum >= ent.meta.Blocks {
		return nil, fmt.Errorf("%w: block %d of %d", ErrEOF, blockNum, ent.meta.Blocks)
	}
	if ent.meta.Spec.Kind == distrib.Disordered {
		payload, _, _, err := s.readChainAt(p, ent, blockNum)
		return payload, err
	}
	return s.lfsRead(p, ent, blockNum)
}

func (s *Server) parallelOpen(p sim.Proc, r ParallelOpenReq) ParallelOpenResp {
	ent, ok := s.dir[r.Name]
	if !ok {
		return ParallelOpenResp{Err: fmt.Sprintf("%v: %s", ErrNotFound, r.Name)}
	}
	if len(r.Workers) == 0 {
		return ParallelOpenResp{Err: fmt.Sprintf("%v: no workers", ErrBadArg)}
	}
	if err := s.refreshSize(p, ent); err != nil {
		return ParallelOpenResp{Err: err.Error()}
	}
	s.nextJob++
	j := &job{
		id:      s.nextJob,
		name:    r.Name,
		workers: append([]msg.Addr(nil), r.Workers...),
		port:    s.net.NewPort(msg.Addr{Node: s.cfg.Node, Port: fmt.Sprintf("%s.job%d", s.cfg.PortName, s.nextJob)}),
	}
	s.jobs[j.id] = j
	return ParallelOpenResp{JobID: j.id, Meta: ent.meta}
}

// parallelRead transfers the next t blocks, one to each worker. When t
// exceeds the interleaving breadth p, the server performs groups of p disk
// accesses in parallel until the request is satisfied ("virtual
// parallelism"), which forces the workers to proceed in lock step.
func (s *Server) parallelRead(p sim.Proc, jobID uint64) (int, bool, error) {
	j, ok := s.jobs[jobID]
	if !ok {
		return 0, false, ErrNoJob
	}
	ent, ok := s.dir[j.name]
	if !ok {
		return 0, false, fmt.Errorf("%w: %s", ErrNotFound, j.name)
	}
	if _, err := s.wbBarrier(p, ent); err != nil {
		return 0, false, err
	}
	l, err := ent.meta.Layout()
	if err != nil {
		return 0, false, err
	}
	t := len(j.workers)
	pWidth := ent.meta.Spec.P
	delivered := 0
	for gStart := 0; gStart < t; gStart += pWidth {
		gEnd := gStart + pWidth
		if gEnd > t {
			gEnd = t
		}
		type pending struct {
			worker int
			seq    int64
			reqID  uint64
		}
		var batch []pending
		for i := gStart; i < gEnd; i++ {
			seq := j.readPos + int64(i)
			if seq >= ent.meta.Blocks {
				break
			}
			node := ent.meta.Nodes[l.NodeFor(seq)]
			req := lfs.ReadReq{FileID: ent.meta.LFSFileID, BlockNum: uint32(l.LocalFor(seq)), Hint: ent.hintFor(node)}
			id, err := s.lc.Start(msg.Addr{Node: node, Port: lfs.PortName}, req, lfs.WireSize(req))
			if err != nil {
				return delivered, false, fmt.Errorf("%w: %v", ErrLFSFailed, err)
			}
			batch = append(batch, pending{worker: i, seq: seq, reqID: id})
		}
		for _, b := range batch {
			m, err := s.lc.AwaitTimeout(b.reqID, s.cfg.LFSTimeout)
			if err != nil {
				return delivered, false, fmt.Errorf("%w: %v", ErrLFSFailed, err)
			}
			resp := m.Body.(lfs.ReadResp)
			if err := resp.Status.Err(); err != nil {
				return delivered, false, fmt.Errorf("%w: %v", ErrLFSFailed, err)
			}
			_, payload, err := DecodeBlock(resp.Data)
			if err != nil {
				return delivered, false, err
			}
			wd := WorkerData{JobID: j.id, Seq: b.seq, Data: payload}
			_ = s.net.Send(p, s.cfg.Node, j.workers[b.worker], &msg.Message{
				From: s.port.Addr(), Body: wd, Size: WireSize(wd),
			})
			delivered++
		}
		if len(batch) < gEnd-gStart {
			break // hit EOF inside this group
		}
	}
	// Tell workers past the end of file that this round has nothing.
	for i := delivered; i < t; i++ {
		wd := WorkerData{JobID: j.id, Seq: j.readPos + int64(i), EOF: true}
		_ = s.net.Send(p, s.cfg.Node, j.workers[i], &msg.Message{
			From: s.port.Addr(), Body: wd, Size: WireSize(wd),
		})
	}
	j.readPos += int64(delivered)
	return delivered, j.readPos >= ent.meta.Blocks, nil
}

// parallelWrite appends t blocks, one from each worker, in lock-step groups
// of p.
func (s *Server) parallelWrite(p sim.Proc, jobID uint64) (int, error) {
	j, ok := s.jobs[jobID]
	if !ok {
		return 0, ErrNoJob
	}
	ent, ok := s.dir[j.name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, j.name)
	}
	s.raInvalidate(j.name)
	if _, err := s.wbBarrier(p, ent); err != nil {
		return 0, err
	}
	t := len(j.workers)
	pWidth := ent.meta.Spec.P
	written := 0
	done := false
	for gStart := 0; gStart < t && !done; gStart += pWidth {
		gEnd := gStart + pWidth
		if gEnd > t {
			gEnd = t
		}
		// Poke the group's workers, then collect their blocks.
		for i := gStart; i < gEnd; i++ {
			wp := WorkerPoke{JobID: j.id, Seq: ent.meta.Blocks + int64(i-gStart)}
			_ = s.net.Send(p, s.cfg.Node, j.workers[i], &msg.Message{
				From: j.port.Addr(), Body: wp, Size: WireSize(wp),
			})
		}
		blocks := make([]WorkerBlock, 0, gEnd-gStart)
		for i := gStart; i < gEnd; i++ {
			m, ok, timedOut := j.port.RecvTimeout(p, s.cfg.LFSTimeout)
			if timedOut || !ok {
				return written, fmt.Errorf("%w: worker block missing", ErrLFSFailed)
			}
			wb, isWB := m.Body.(WorkerBlock)
			if !isWB {
				return written, fmt.Errorf("%w: unexpected %T on job port", ErrBadArg, m.Body)
			}
			blocks = append(blocks, wb)
		}
		sort.Slice(blocks, func(a, b int) bool { return blocks[a].Seq < blocks[b].Seq })
		// Overlap the group's LFS writes: start them all (the blocks of
		// a group land on distinct nodes under round-robin), then wait.
		l, err := ent.meta.Layout()
		if err != nil {
			return written, err
		}
		base := ent.meta.Blocks
		type pendingWrite struct {
			reqID uint64
			node  msg.NodeID
		}
		var pends []pendingWrite
		for _, wb := range blocks {
			if wb.EOF {
				done = true
				continue
			}
			if done {
				return written, fmt.Errorf("%w: worker data after another worker's EOF", ErrBadArg)
			}
			if len(wb.Data) > PayloadBytes {
				return written, fmt.Errorf("%w: payload %d exceeds %d", ErrBadArg, len(wb.Data), PayloadBytes)
			}
			blockNum := base + int64(len(pends))
			node := ent.meta.Nodes[l.NodeFor(blockNum)]
			data := EncodeBlock(BlockHeader{
				FileID:      ent.meta.FileID,
				GlobalBlock: blockNum,
				P:           uint16(ent.meta.Spec.P),
				Start:       uint16(ent.meta.Spec.Start),
			}, wb.Data)
			s.nextLFSOp++
			req := lfs.WriteReq{FileID: ent.meta.LFSFileID, BlockNum: uint32(l.LocalFor(blockNum)), Data: data, Hint: ent.hintFor(node), OpID: s.nextLFSOp}
			id, err := s.lc.Start(msg.Addr{Node: node, Port: lfs.PortName}, req, lfs.WireSize(req))
			if err != nil {
				return written, fmt.Errorf("%w: %v", ErrLFSFailed, err)
			}
			pends = append(pends, pendingWrite{reqID: id, node: node})
		}
		for _, pw := range pends {
			m, err := s.lc.AwaitTimeout(pw.reqID, s.cfg.LFSTimeout)
			if err != nil {
				return written, fmt.Errorf("%w: %v", ErrLFSFailed, err)
			}
			resp := m.Body.(lfs.WriteResp)
			if err := resp.Status.Err(); err != nil {
				return written, fmt.Errorf("%w: %v", ErrLFSFailed, err)
			}
			ent.hints[pw.node] = resp.Addr
			ent.meta.Blocks++
			written++
		}
	}
	return written, nil
}
