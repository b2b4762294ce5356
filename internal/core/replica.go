// Replicated Bridge Server: the directory state machine behind a
// Raft-style replicated log.
//
// Each replica embeds a plain Server as its directory state machine and
// LFS effect engine, but drives a different loop on the same port: client
// requests and consensus traffic share the replica's address, and the
// loop type-switches between them. Every directory mutation is validated
// against the committed state, encoded as a log operation (rop) carrying
// everything needed to re-apply it — including write payloads — and
// proposed through raft. Only after the entry commits does the leader
// mutate its directory (by applying the entry, exactly as every follower
// does), execute the LFS side effects, and reply.
//
// Because ops carry their payloads, LFS effects are re-executable from
// the log alone: a fresh leader first re-runs the effects of every
// committed entry it still retains (creates tolerate exists, deletes
// tolerate not-found, writes land the same bytes at the same absolute
// blocks), so an entry the dead leader committed but never acted on is
// made real before any new request is served. Snapshots carry the recent
// effect tail (rsnap.Pending) so compaction never destroys an entry whose
// effect might still be owed.
//
// Exactly-once semantics ride the log too: the reply-relevant outcome of
// every OpID-carrying operation is recorded in a replicated op table
// during apply, so a client retransmission — to the same leader or to its
// successor — heals the recorded reply instead of re-running the
// mutation.
//
// Scope: disordered placements and parallel-transfer jobs are rejected in
// replicated mode, the health monitor and read-ahead are disabled, and a
// failover while a file has dirty write-behind state surfaces
// ErrDeferredWrite conservatively (acknowledged blocks beyond the durable
// prefix roll back).
package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"bridge/internal/distrib"
	"bridge/internal/efs"
	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/obs"
	"bridge/internal/raft"
	"bridge/internal/sim"
)

const (
	// raftSnapshotEvery triggers log compaction once the retained log
	// grows past this many entries.
	raftSnapshotEvery = 48
	// raftPendingFx is how many recent effect-carrying ops a snapshot
	// retains for takeover replay. Serial request handling leaves at most
	// one committed-but-uneffected entry per leadership, so this covers
	// many consecutive failed takeovers.
	raftPendingFx = 8
	// raftCommitBound bounds how long a leader waits for one of its own
	// entries to commit before telling the client to retry elsewhere.
	raftCommitBound = 900 * time.Millisecond
)

// rop is one replicated directory operation: a log entry's payload. All
// fields are scalars or slices (no maps) so gob encoding is
// deterministic.
type rop struct {
	Kind   uint8
	Client msg.Addr // requesting client, for the replicated op table
	Op     uint64   // client OpID; 0 = not recorded
	Name   string
	New    string   // rename target
	Meta   Meta     // create: the fully resolved metadata
	NextID uint32   // create: id counter value after allocation
	At     int64    // write/read start block
	N      int      // block count / marker flag
	Data   [][]byte // write payloads (logged appends)
	Blocks int64    // size watermark for markers and fixups
	EOF    bool     // seqread: reply hit end of file
	ErrS   string   // deferred-error text riding the log
}

// rop kinds.
const (
	ropCreate uint8 = iota + 1
	ropDelete
	ropRename
	ropRelease
	ropOpen
	ropWrite
	ropSeqRead
	ropWBDirty   // file entered write-behind buffering at committed size Blocks
	ropWBFlushed // durable prefix advanced to Blocks (N=1: fully drained)
	ropWBFail    // rollback to Blocks; ErrS surfaces (to Op, or arms deferred)
	ropWBClear   // deferred error consumed by operation Op
	ropFixup     // effect failed after commit: size corrected (Blocks<0: file removed)
)

// ropRec is the replicated record of a completed operation, enough to
// rebuild its reply for a retransmission.
type ropRec struct {
	Kind uint8
	Name string
	Meta Meta
	At   int64
	N    int
	EOF  bool
	ErrS string
}

type opKey struct {
	Client msg.Addr
	Op     uint64
}

// rsnap is the gob-encoded state-machine snapshot installed on replicas
// that fall behind compaction. Slices are sorted so identical states
// encode identically.
type rsnap struct {
	NextID  uint32
	Files   []rsnapFile
	Cursors []rsnapCursor
	Ops     []rsnapOp // FIFO order
	Pending []rop     // recent effect-carrying ops, for takeover replay
}

type rsnapFile struct {
	Meta     Meta // Blocks normalized to the committed watermark
	WBDirty  bool
	Deferred string
}

type rsnapCursor struct {
	Client msg.Addr
	Name   string
	Pos    int64
}

type rsnapOp struct {
	Client msg.Addr
	Op     uint64
	Rec    ropRec
}

// raftMetrics are the replica set's typed metric handles, registered once
// per set on the network's shared registry.
type raftMetrics struct {
	elections    obs.Counter
	leaderWins   obs.Counter
	stepDowns    obs.Counter
	committed    obs.Counter
	snapInstalls obs.Counter
	redirects    obs.Counter
	heals        obs.Counter
	proposals    obs.Counter
	commitWait   obs.Timer
}

func newRaftMetrics(r *obs.Registry) raftMetrics {
	return raftMetrics{
		elections:    r.Counter("bridge.raft_elections", "elections", "Leader elections started by any replica."),
		leaderWins:   r.Counter("bridge.raft_leader_wins", "wins", "Elections won: leadership changes across the replica set."),
		stepDowns:    r.Counter("bridge.raft_stepdowns", "stepdowns", "Leaderships lost to a higher term or lost quorum."),
		committed:    r.Counter("bridge.raft_entries_committed", "entries", "Replicated log entries delivered to replica state machines."),
		snapInstalls: r.Counter("bridge.raft_snap_installs", "snapshots", "State-machine snapshots installed on lagging replicas."),
		redirects:    r.Counter("bridge.raft_notleader_redirects", "requests", "Client requests answered with a not-leader redirect."),
		heals:        r.Counter("bridge.raft_heals", "requests", "Retransmitted operations healed from the replicated op table."),
		proposals:    r.Counter("bridge.raft_proposals", "entries", "Directory operations proposed into the replicated log."),
		commitWait:   r.Timer("bridge.raft_commit_wait", "Virtual time leaders spent waiting for their own entries to commit."),
	}
}

// shardMetrics are one shard group's typed metric handles, named by shard
// index so a sharded directory's load balance and per-group consensus
// traffic are visible side by side. Registration is idempotent, so the
// group's replicas share one set of counters.
type shardMetrics struct {
	requests  obs.Counter
	committed obs.Counter
}

func newShardMetrics(r *obs.Registry, shard int) shardMetrics {
	return shardMetrics{
		requests: r.Counter(fmt.Sprintf("bridge.shard%d_requests", shard), "requests",
			fmt.Sprintf("Client requests received by shard group %d's replicas (including not-leader redirects).", shard)),
		committed: r.Counter(fmt.Sprintf("bridge.shard%d_entries_committed", shard), "entries",
			fmt.Sprintf("Replicated log entries committed by shard group %d.", shard)),
	}
}

// ReplicaSpec wires one replica into its set.
type ReplicaSpec struct {
	// ID is this replica's index within its shard group; Peers maps every
	// group-member id to its request/consensus address.
	ID    int
	Peers []msg.Addr
	// Shard is the directory shard group this replica belongs to. Groups
	// are independent Raft instances over disjoint peer sets; the shard
	// index names the group in metrics, introspection, and fault
	// schedules.
	Shard int
	// Seed drives this replica's jittered election timeouts; derive it
	// per replica so elections never tie.
	Seed int64
	// Store persists the consensus state across restarts.
	Store raft.Store
}

// ReplicaServer is one member of a replicated Bridge Server set.
type ReplicaServer struct {
	s    *Server
	node *raft.Node
	spec ReplicaSpec
	rm   raftMetrics
	sm   shardMetrics

	// Replicated state beyond the inner server's directory: the op table
	// (exactly-once replies), write-behind watermarks, armed deferred
	// errors, and the recent effect tail.
	ops      map[opKey]ropRec
	opQ      []opKey
	wbLow    map[string]int64  // committed durable size of wb-dirty files
	deferred map[string]string // failover-armed deferred-write errors
	recentFx []rop             // last raftPendingFx effect-carrying ops

	applied  uint64 // last log index applied to the state machine
	tookOver bool   // this leadership already replayed owed effects

	parked []*msg.Message // client requests held while an entry commits
	dead   atomic.Bool
	tall   raft.Tallies // last tallies diffed into the metrics
}

// StartReplica boots one replica process. The same spec (with the same
// Store) restarts a killed replica: its log and term reload from the
// store, and the state machine rebuilds by replay.
func StartReplica(rt sim.Runtime, net *msg.Network, cfg Config, nodes []msg.NodeID, spec ReplicaSpec) *ReplicaServer {
	// The inner server is the state machine and effect engine only: no
	// health monitor (its probes are unreplicated state), no read-ahead
	// (its buffers would serve reads that bypass the lease check).
	cfg.Health = nil
	cfg.ReadAhead = 0
	peerIDs := make([]int, len(spec.Peers))
	for i := range spec.Peers {
		peerIDs[i] = i
	}
	r := &ReplicaServer{
		s: newServer(net, cfg, nodes),
		node: raft.New(raft.Config{
			ID:    spec.ID,
			Peers: peerIDs,
			Seed:  spec.Seed,
			Store: spec.Store,
		}),
		spec:     spec,
		rm:       newRaftMetrics(net.Stats()),
		sm:       newShardMetrics(net.Stats(), spec.Shard),
		ops:      make(map[opKey]ropRec),
		wbLow:    make(map[string]int64),
		deferred: make(map[string]string),
	}
	rt.Go(fmt.Sprintf("%v/r%d", r.s.port.Addr(), spec.ID), func(p sim.Proc) { r.run(p) })
	return r
}

// Addr returns the replica's request (and consensus) address.
func (r *ReplicaServer) Addr() msg.Addr { return r.s.port.Addr() }

// ID returns the replica's index within its shard group.
func (r *ReplicaServer) ID() int { return r.spec.ID }

// Shard returns the directory shard group this replica belongs to.
func (r *ReplicaServer) Shard() int { return r.spec.Shard }

// RaftStatus returns a snapshot of the replica's consensus state.
func (r *ReplicaServer) RaftStatus() raft.Status { return r.node.Status() }

// IsLeader reports whether this replica currently leads and has committed
// an entry of its own term (so its directory view is authoritative).
func (r *ReplicaServer) IsLeader() bool {
	return !r.dead.Load() && r.node.ReadyToLead()
}

// Crash kills the replica process without cleanup: the port closes, the
// loop exits at its next step, and nothing volatile survives. The caller
// crashes the raft store's disk alongside.
func (r *ReplicaServer) Crash() {
	r.dead.Store(true)
	r.s.port.Close()
}

// Stop shuts the replica down (alias of Crash; the consensus state is
// durable, so there is nothing gentler to do).
func (r *ReplicaServer) Stop() { r.Crash() }

func (r *ReplicaServer) run(p sim.Proc) {
	s := r.s
	s.lc = msg.NewClient(p, s.net, s.cfg.Node, s.cfg.PortName+".lfscli")
	snap, err := r.node.Load(p, p.Now())
	if err != nil {
		// The consensus store is unreadable (disk down): stay dead.
		r.dead.Store(true)
		s.lc.Close()
		return
	}
	if snap != nil {
		r.restore(snap)
	}
	r.applied = r.node.Status().SnapIndex
	for {
		if r.dead.Load() {
			s.lc.Close()
			return
		}
		if len(r.parked) > 0 {
			m := r.parked[0]
			r.parked = r.parked[1:]
			r.serve(p, m)
			r.pump(p)
			continue
		}
		wait := r.node.Deadline() - p.Now()
		if wait < 0 {
			wait = 0
		}
		m, ok, timedOut := s.port.RecvTimeout(p, wait)
		if !ok && !timedOut {
			r.dead.Store(true)
			s.lc.Close()
			return
		}
		if r.dead.Load() {
			s.lc.Close()
			return
		}
		r.node.Tick(p.Now())
		if m != nil {
			if isRaftMsg(m.Body) {
				r.node.Step(m.Body, p.Now())
			} else {
				r.serve(p, m)
			}
		}
		r.pump(p)
	}
}

func isRaftMsg(body any) bool {
	switch body.(type) {
	case raft.VoteReq, raft.VoteResp, raft.AppendReq, raft.AppendResp, raft.SnapReq, raft.SnapResp:
		return true
	}
	return false
}

// pump drains the consensus node: installs snapshots, applies committed
// entries, compacts, persists, and transmits.
func (r *ReplicaServer) pump(p sim.Proc) {
	for {
		if inst := r.node.TakeInstalled(); inst != nil {
			r.restore(inst.Data)
			r.applied = inst.Index
			continue
		}
		ents := r.node.TakeCommitted()
		if len(ents) == 0 {
			break
		}
		for _, e := range ents {
			r.applied = e.Index
			if e.Data == nil {
				continue
			}
			op, err := decodeRop(e.Data)
			if err != nil {
				continue // unreachable: we encoded it
			}
			r.apply(op)
		}
	}
	if r.node.Status().Role != raft.Leader {
		r.tookOver = false
	}
	r.maybeCompact()
	out, err := r.node.Flush(p)
	if err != nil {
		// The consensus store failed (disk crash): the replica is dead.
		r.dead.Store(true)
		return
	}
	for _, o := range out {
		if o.To == r.spec.ID || o.To < 0 || o.To >= len(r.spec.Peers) {
			continue
		}
		_ = r.s.net.Send(p, r.s.cfg.Node, r.spec.Peers[o.To], &msg.Message{
			From: r.s.port.Addr(),
			Body: o.Msg,
			Size: o.Size,
		})
	}
	r.syncMetrics()
}

func (r *ReplicaServer) maybeCompact() {
	st := r.node.Status()
	if st.LastIndex-st.SnapIndex < raftSnapshotEvery || r.applied <= st.SnapIndex {
		return
	}
	// The snapshot is the state through r.applied; rsnap.Pending keeps
	// the effect tail alive across the compaction.
	r.node.Compact(r.applied, r.encodeSnapshot())
}

func (r *ReplicaServer) syncMetrics() {
	t := r.node.Tallies()
	d := raft.Tallies{
		Elections:    t.Elections - r.tall.Elections,
		LeaderWins:   t.LeaderWins - r.tall.LeaderWins,
		StepDowns:    t.StepDowns - r.tall.StepDowns,
		Committed:    t.Committed - r.tall.Committed,
		SnapInstalls: t.SnapInstalls - r.tall.SnapInstalls,
	}
	r.tall = t
	r.rm.elections.Add(d.Elections)
	r.rm.leaderWins.Add(d.LeaderWins)
	r.rm.stepDowns.Add(d.StepDowns)
	r.rm.committed.Add(d.Committed)
	r.rm.snapInstalls.Add(d.SnapInstalls)
	r.sm.committed.Add(d.Committed)
}

// ---- the replicated state machine ----

// record stores an operation's outcome in the replicated op table (FIFO
// bounded, like the single server's reply cache).
func (r *ReplicaServer) record(op rop, rec ropRec) {
	if op.Op == 0 {
		return
	}
	k := opKey{Client: op.Client, Op: op.Op}
	if _, exists := r.ops[k]; !exists {
		if len(r.opQ) >= dedupCap {
			delete(r.ops, r.opQ[0])
			r.opQ = r.opQ[1:]
		}
		r.opQ = append(r.opQ, k)
	}
	r.ops[k] = rec
}

func (r *ReplicaServer) unrecord(client msg.Addr, op uint64) {
	if op == 0 {
		return
	}
	k := opKey{Client: client, Op: op}
	if _, exists := r.ops[k]; !exists {
		return
	}
	delete(r.ops, k)
	for i, q := range r.opQ {
		if q == k {
			r.opQ = append(r.opQ[:i], r.opQ[i+1:]...)
			break
		}
	}
}

func (r *ReplicaServer) noteFx(op rop) {
	r.recentFx = append(r.recentFx, op)
	if len(r.recentFx) > raftPendingFx {
		r.recentFx = r.recentFx[len(r.recentFx)-raftPendingFx:]
	}
}

// dropFileState clears the replica-level per-file maps when a file leaves
// the directory.
func (r *ReplicaServer) dropFileState(name string) {
	delete(r.wbLow, name)
	delete(r.deferred, name)
}

// apply is the deterministic state transition: every replica runs it with
// the same ops in the same order and ends in the same state. It touches
// no I/O — LFS effects are the leader's job, after commit.
func (r *ReplicaServer) apply(op rop) {
	s := r.s
	switch op.Kind {
	case ropCreate:
		s.nextID = op.NextID
		meta := op.Meta
		s.dir[meta.Name] = &dirent{meta: meta, hints: make(map[msg.NodeID]int32)}
		r.record(op, ropRec{Kind: op.Kind, Name: op.Name, Meta: meta})
		r.noteFx(op)
	case ropDelete, ropRelease:
		ent, ok := s.dir[op.Name]
		rec := ropRec{Kind: op.Kind, Name: op.Name}
		if ok {
			rec.Meta = ent.meta
			delete(s.dir, op.Name)
			for k := range s.cursors {
				if k.name == op.Name {
					delete(s.cursors, k)
				}
			}
			r.dropFileState(op.Name)
		}
		r.record(op, rec)
		if op.Kind == ropDelete {
			r.noteFx(op)
		}
	case ropRename:
		ent, ok := s.dir[op.Name]
		if !ok {
			r.record(op, ropRec{Kind: op.Kind, Name: op.New})
			break
		}
		delete(s.dir, op.Name)
		ent.meta.Name = op.New
		s.dir[op.New] = ent
		for k, c := range s.cursors {
			if k.name == op.Name {
				delete(s.cursors, k)
				nk := k
				nk.name = op.New
				s.cursors[nk] = c
			}
		}
		if low, dirty := r.wbLow[op.Name]; dirty {
			delete(r.wbLow, op.Name)
			r.wbLow[op.New] = low
		}
		if d, armed := r.deferred[op.Name]; armed {
			delete(r.deferred, op.Name)
			r.deferred[op.New] = d
		}
		r.record(op, ropRec{Kind: op.Kind, Name: op.New, Meta: ent.meta})
	case ropOpen:
		if _, ok := s.dir[op.Name]; ok {
			s.cursors[cursorKey{client: op.Client, name: op.Name}] = &cursor{}
		}
	case ropWrite:
		ent, ok := s.dir[op.Name]
		if !ok {
			break
		}
		if end := op.At + int64(op.N); end > ent.meta.Blocks {
			ent.meta.Blocks = end
		}
		r.record(op, ropRec{Kind: op.Kind, Name: op.Name, At: op.At, N: op.N})
		r.noteFx(op)
	case ropSeqRead:
		if _, ok := s.dir[op.Name]; !ok {
			break
		}
		key := cursorKey{client: op.Client, name: op.Name}
		cur := s.cursors[key]
		if cur == nil {
			cur = &cursor{}
			s.cursors[key] = cur
		}
		cur.readPos = op.At + int64(op.N)
		r.record(op, ropRec{Kind: op.Kind, Name: op.Name, At: op.At, N: op.N, EOF: op.EOF})
	case ropWBDirty:
		if _, ok := s.dir[op.Name]; ok {
			r.wbLow[op.Name] = op.Blocks
		}
	case ropWBFlushed:
		ent, ok := s.dir[op.Name]
		if !ok {
			break
		}
		// max: on the leader the size already covers acknowledged
		// buffered blocks; followers catch up to the durable watermark.
		if op.Blocks > ent.meta.Blocks {
			ent.meta.Blocks = op.Blocks
		}
		if op.N == 1 {
			delete(r.wbLow, op.Name)
		} else {
			r.wbLow[op.Name] = op.Blocks
		}
	case ropWBFail:
		ent, ok := s.dir[op.Name]
		if !ok {
			break
		}
		ent.meta.Blocks = op.Blocks
		delete(r.wbLow, op.Name)
		if op.Op != 0 {
			// The failing operation consumes the error itself; record it
			// so a retransmission replays the same failure.
			r.record(op, ropRec{Kind: op.Kind, Name: op.Name, ErrS: op.ErrS})
		} else {
			r.deferred[op.Name] = op.ErrS
		}
	case ropWBClear:
		delete(r.deferred, op.Name)
		r.record(op, ropRec{Kind: op.Kind, Name: op.Name, ErrS: op.ErrS})
	case ropFixup:
		if op.Blocks < 0 {
			if _, ok := s.dir[op.Name]; ok {
				delete(s.dir, op.Name)
				for k := range s.cursors {
					if k.name == op.Name {
						delete(s.cursors, k)
					}
				}
				r.dropFileState(op.Name)
			}
		} else if ent, ok := s.dir[op.Name]; ok {
			ent.meta.Blocks = op.Blocks
		}
		// The op the fixup corrects failed: forget its record so a
		// retransmission re-executes instead of healing a stale reply.
		r.unrecord(op.Client, op.Op)
	}
}

// encodeSnapshot captures the replicated state machine. Identical states
// encode to identical bytes (sorted slices, gob, no maps).
func (r *ReplicaServer) encodeSnapshot() []byte {
	s := r.s
	snap := rsnap{NextID: s.nextID}
	names := make([]string, 0, len(s.dir))
	for name := range s.dir {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := rsnapFile{Meta: s.dir[name].meta}
		if low, dirty := r.wbLow[name]; dirty {
			f.WBDirty = true
			f.Meta.Blocks = low
		}
		f.Deferred = r.deferred[name]
		snap.Files = append(snap.Files, f)
	}
	for k, c := range s.cursors {
		snap.Cursors = append(snap.Cursors, rsnapCursor{Client: k.client, Name: k.name, Pos: c.readPos})
	}
	sort.Slice(snap.Cursors, func(i, j int) bool {
		a, b := snap.Cursors[i], snap.Cursors[j]
		if a.Client.Node != b.Client.Node {
			return a.Client.Node < b.Client.Node
		}
		if a.Client.Port != b.Client.Port {
			return a.Client.Port < b.Client.Port
		}
		return a.Name < b.Name
	})
	for _, k := range r.opQ {
		if rec, ok := r.ops[k]; ok {
			snap.Ops = append(snap.Ops, rsnapOp{Client: k.Client, Op: k.Op, Rec: rec})
		}
	}
	snap.Pending = append([]rop(nil), r.recentFx...)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		panic(fmt.Sprintf("bridge: encode replica snapshot: %v", err))
	}
	return buf.Bytes()
}

// restore resets the state machine to a snapshot.
func (r *ReplicaServer) restore(data []byte) {
	var snap rsnap
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		panic(fmt.Sprintf("bridge: decode replica snapshot: %v", err))
	}
	s := r.s
	s.dir = make(map[string]*dirent)
	s.cursors = make(map[cursorKey]*cursor)
	s.nextID = snap.NextID
	r.ops = make(map[opKey]ropRec)
	r.opQ = r.opQ[:0]
	r.wbLow = make(map[string]int64)
	r.deferred = make(map[string]string)
	for _, f := range snap.Files {
		s.dir[f.Meta.Name] = &dirent{meta: f.Meta, hints: make(map[msg.NodeID]int32)}
		if f.WBDirty {
			r.wbLow[f.Meta.Name] = f.Meta.Blocks
		}
		if f.Deferred != "" {
			r.deferred[f.Meta.Name] = f.Deferred
		}
	}
	for _, c := range snap.Cursors {
		s.cursors[cursorKey{client: c.Client, name: c.Name}] = &cursor{readPos: c.Pos}
	}
	for _, o := range snap.Ops {
		r.opQ = append(r.opQ, opKey{Client: o.Client, Op: o.Op})
		r.ops[opKey{Client: o.Client, Op: o.Op}] = o.Rec
	}
	r.recentFx = append([]rop(nil), snap.Pending...)
	// Volatile leader-side buffers never survive a snapshot install.
	if s.wb != nil {
		s.wb = newWBCache(s.cfg.WriteBehind)
	}
	r.tookOver = false
}

func encodeRop(op rop) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(op); err != nil {
		panic(fmt.Sprintf("bridge: encode log op: %v", err))
	}
	return buf.Bytes()
}

func decodeRop(data []byte) (rop, error) {
	var op rop
	err := gob.NewDecoder(bytes.NewReader(data)).Decode(&op)
	return op, err
}

// ---- consensus-side plumbing for the serving path ----

func (r *ReplicaServer) notLeaderError() error {
	return fmt.Errorf("%w (leader=%d)", ErrNotLeader, r.node.LeaderHint())
}

func (r *ReplicaServer) leaseOK(p sim.Proc) bool {
	return r.node.LeaseValid(p.Now())
}

// commit proposes op and waits until it applies on this replica, pumping
// consensus traffic and parking client requests meanwhile. An error means
// leadership was lost first; the client retries, and the op table makes
// the retry safe.
func (r *ReplicaServer) commit(p sim.Proc, op rop) error {
	idx, term, ok := r.node.Propose(encodeRop(op), p.Now())
	if !ok {
		return r.notLeaderError()
	}
	r.rm.proposals.Add(1)
	start := p.Now()
	r.pump(p)
	for r.applied < idx {
		if r.dead.Load() {
			return r.notLeaderError()
		}
		st := r.node.Status()
		if st.Term != term || st.Role != raft.Leader {
			return r.notLeaderError()
		}
		if p.Now()-start > raftCommitBound {
			return r.notLeaderError()
		}
		wait := r.node.Deadline() - p.Now()
		if wait < 0 {
			wait = 0
		}
		m, ok2, timedOut := r.s.port.RecvTimeout(p, wait)
		if !ok2 && !timedOut {
			r.dead.Store(true)
			return r.notLeaderError()
		}
		r.node.Tick(p.Now())
		if m != nil {
			if isRaftMsg(m.Body) {
				r.node.Step(m.Body, p.Now())
			} else {
				r.parked = append(r.parked, m)
			}
		}
		r.pump(p)
	}
	if r.node.Status().Term != term {
		return r.notLeaderError()
	}
	r.rm.commitWait.Add(p.Now() - start)
	return nil
}

// ---- serving ----

func (r *ReplicaServer) serve(p sim.Proc, req *msg.Message) {
	s := r.s
	rec := s.net.Recorder()
	if rec != nil {
		at := p.Now()
		sp := rec.Start(at, req.Trace, req.Span, "server."+opName(req.Body), int(s.cfg.Node))
		sp.SetQueueWait(s.net.QueueWait(at, req))
		s.curSpan = sp
		s.lc.SetTrace(req.Trace, sp.ID())
	}
	if s.cfg.OpCPU > 0 {
		p.Sleep(s.cfg.OpCPU)
	}
	body := r.dispatch(p, req)
	if !r.dead.Load() {
		_ = s.net.Send(p, s.cfg.Node, req.From, &msg.Message{
			From:  s.port.Addr(),
			ReqID: req.ReqID,
			Body:  body,
			Size:  WireSize(body),
			Trace: req.Trace,
			Span:  req.Span,
		})
	}
	if rec != nil {
		s.curSpan.EndErr(p.Now(), respErrAny(body))
		s.curSpan = obs.SpanRef{}
		s.lc.SetTrace(0, 0)
	}
}

func (r *ReplicaServer) dispatch(p sim.Proc, req *msg.Message) any {
	r.sm.requests.Add(1)
	if !r.node.ReadyToLead() {
		r.rm.redirects.Add(1)
		return respWithErr(req.Body, errString(r.notLeaderError()))
	}
	if !r.tookOver {
		r.takeover(p)
		if r.dead.Load() || !r.node.ReadyToLead() {
			r.rm.redirects.Add(1)
			return respWithErr(req.Body, errString(r.notLeaderError()))
		}
	}
	if op, hasOp := opIDOf(req.Body); hasOp && op != 0 {
		if rec, hit := r.ops[opKey{Client: req.From, Op: op}]; hit {
			r.rm.heals.Add(1)
			r.s.curSpan.Annotate("healed from op table")
			return r.heal(p, req.Body, rec)
		}
	}
	return r.handle(p, req)
}

// heal rebuilds the reply of an already-committed operation from its
// replicated record. Reads re-fetch the same blocks (same position, same
// bytes); mutations answer from the record without re-running.
func (r *ReplicaServer) heal(p sim.Proc, body any, rec ropRec) any {
	if rec.Kind == ropWBFail || rec.Kind == ropWBClear {
		return respWithErr(body, rec.ErrS)
	}
	switch body.(type) {
	case CreateReq:
		return CreateResp{Meta: rec.Meta, Err: rec.ErrS}
	case DeleteReq:
		return DeleteResp{Err: rec.ErrS}
	case RenameReq:
		return RenameResp{Meta: rec.Meta, Err: rec.ErrS}
	case ReleaseReq:
		return ReleaseResp{Meta: rec.Meta, Err: rec.ErrS}
	case SeqWriteReq:
		return SeqWriteResp{Err: rec.ErrS}
	case RandWriteReq:
		return RandWriteResp{Err: rec.ErrS}
	case RandWriteNReq:
		return RandWriteNResp{Written: rec.N, Err: rec.ErrS}
	case FlushReq:
		return FlushResp{Err: rec.ErrS}
	case SeqReadReq:
		data, err := r.healRead1(p, rec)
		return SeqReadResp{Data: data, EOF: false, Err: errString(err)}
	case SeqReadNReq:
		blocks, eof, err := r.healReadN(p, rec)
		return SeqReadNResp{Blocks: blocks, EOF: eof, Err: errString(err)}
	}
	return respWithErr(body, rec.ErrS)
}

func (r *ReplicaServer) healRead1(p sim.Proc, rec ropRec) ([]byte, error) {
	ent, ok := r.s.dir[rec.Name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, rec.Name)
	}
	return r.s.lfsRead(p, ent, rec.At)
}

func (r *ReplicaServer) healReadN(p sim.Proc, rec ropRec) ([][]byte, bool, error) {
	ent, ok := r.s.dir[rec.Name]
	if !ok {
		return nil, false, fmt.Errorf("%w: %s", ErrNotFound, rec.Name)
	}
	blocks, err := r.s.lfsReadN(p, ent, rec.At, rec.N)
	return blocks, rec.EOF, err
}

func (r *ReplicaServer) handle(p sim.Proc, req *msg.Message) any {
	s := r.s
	from := req.From
	switch b := req.Body.(type) {
	case CreateReq:
		meta, err := r.rcreate(p, b, from)
		return CreateResp{Meta: meta, Err: errString(err)}
	case DeleteReq:
		freed, err := r.rdelete(p, b, from)
		return DeleteResp{Freed: freed, Err: errString(err)}
	case RenameReq:
		meta, err := r.rrename(p, b, from)
		return RenameResp{Meta: meta, Err: errString(err)}
	case ReleaseReq:
		meta, err := r.rrelease(p, b, from)
		return ReleaseResp{Meta: meta, Err: errString(err)}
	case OpenReq:
		meta, err := r.ropen(p, b, from)
		return OpenResp{Meta: meta, Err: errString(err)}
	case StatReq:
		meta, err := r.rstat(p, b.Name, from)
		return StatResp{Meta: meta, Err: errString(err)}
	case FlushReq:
		flushed, err := r.rflush(p, b, from)
		return FlushResp{Flushed: flushed, Err: errString(err)}
	case SeqWriteReq:
		err := r.rseqWrite(p, b, from)
		return SeqWriteResp{Err: errString(err)}
	case SeqReadReq:
		data, eof, err := r.rseqRead(p, b, from)
		return SeqReadResp{Data: data, EOF: eof, Err: errString(err)}
	case SeqReadNReq:
		blocks, eof, err := r.rseqReadN(p, b, from)
		return SeqReadNResp{Blocks: blocks, EOF: eof, Err: errString(err)}
	case RandReadReq:
		data, err := r.rreadAt(p, b.Name, b.BlockNum, 1, from)
		var one []byte
		if err == nil {
			one = data[0]
		}
		return RandReadResp{Data: one, Err: errString(err)}
	case RandReadNReq:
		blocks, err := r.rreadAt(p, b.Name, b.BlockNum, b.Count, from)
		return RandReadNResp{Blocks: blocks, Err: errString(err)}
	case RandWriteReq:
		_, err := r.rwriteAt(p, b.Name, b.BlockNum, [][]byte{b.Data}, b.OpID, from)
		return RandWriteResp{Err: errString(err)}
	case RandWriteNReq:
		written, err := r.rwriteAt(p, b.Name, b.BlockNum, b.Blocks, b.OpID, from)
		return RandWriteNResp{Written: written, Err: errString(err)}
	case ParallelOpenReq:
		return ParallelOpenResp{Err: errString(r.noParallel())}
	case ParallelReadReq:
		return ParallelReadResp{Err: errString(r.noParallel())}
	case ParallelWriteReq:
		return ParallelWriteResp{Err: errString(r.noParallel())}
	case CloseJobReq:
		return CloseJobResp{Err: errString(r.noParallel())}
	case ListReq, GetInfoReq, HealthReq:
		// Pure views of replicated (or static) state.
		if _, isList := req.Body.(ListReq); isList && !r.leaseOK(p) {
			return respWithErr(req.Body, errString(r.notLeaderError()))
		}
		return s.handle(p, req)
	case RepairNodeReq, FsckReq, ScrubReq, RecoveryReq:
		// Storage-node sweeps: drain replicated write-behind state first
		// so the inner barrier finds nothing to do, then delegate.
		if !r.leaseOK(p) {
			return respWithErr(req.Body, errString(r.notLeaderError()))
		}
		op, _ := opIDOf(req.Body)
		if err := r.drainWBAll(p, from, op); err != nil {
			return respWithErr(req.Body, errString(err))
		}
		return s.handle(p, req)
	default:
		return s.handle(p, req)
	}
}

func (r *ReplicaServer) noParallel() error {
	return fmt.Errorf("%w: parallel transfer jobs are unsupported on a replicated server", ErrBadArg)
}

// ---- write-behind marker plumbing ----

// surfaceDeferred consumes a failover-armed deferred-write error exactly
// once: the clearing rides the log recorded under the surfacing op, so a
// retransmission — to this leader or its successor — replays the same
// error instead of losing or doubling it.
func (r *ReplicaServer) surfaceDeferred(p sim.Proc, name string, from msg.Addr, opID uint64) error {
	text, armed := r.deferred[name]
	if !armed {
		return nil
	}
	clear := rop{Kind: ropWBClear, Client: from, Op: opID, Name: name, ErrS: text}
	if err := r.commit(p, clear); err != nil {
		return err
	}
	return errors.New(text)
}

// drainWB surfaces any armed deferred error, then drains the file's
// write-behind state and commits the matching marker so every replica's
// committed size catches up with what landed.
func (r *ReplicaServer) drainWB(p sim.Proc, name string, from msg.Addr, opID uint64) (int, error) {
	if err := r.surfaceDeferred(p, name, from, opID); err != nil {
		return 0, err
	}
	s := r.s
	ent, ok := s.dir[name]
	if !ok || s.wb == nil {
		return 0, nil
	}
	_, dirty := r.wbLow[name]
	if !dirty && s.wb.entries[name] == nil {
		return 0, nil
	}
	if !r.leaseOK(p) {
		return 0, r.notLeaderError()
	}
	flushed, err := s.wbBarrier(p, ent)
	if err != nil {
		// Acknowledged blocks were rolled back (wbBarrier already shrank
		// the size); replicate the rollback under the surfacing op.
		fail := rop{Kind: ropWBFail, Client: from, Op: opID, Name: name, Blocks: ent.meta.Blocks, ErrS: err.Error()}
		if cerr := r.commit(p, fail); cerr != nil {
			return flushed, cerr
		}
		return flushed, err
	}
	if _, still := r.wbLow[name]; still {
		done := rop{Kind: ropWBFlushed, Name: name, Blocks: ent.meta.Blocks, N: 1}
		if cerr := r.commit(p, done); cerr != nil {
			return flushed, cerr
		}
	}
	return flushed, nil
}

// drainWBAll drains every file with write-behind or deferred state, in
// name order.
func (r *ReplicaServer) drainWBAll(p sim.Proc, from msg.Addr, opID uint64) error {
	names := map[string]bool{}
	for name := range r.wbLow {
		names[name] = true
	}
	for name := range r.deferred {
		names[name] = true
	}
	if r.s.wb != nil {
		for name := range r.s.wb.entries {
			names[name] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		if _, err := r.drainWB(p, name, from, opID); err != nil {
			return err
		}
	}
	return nil
}

// syncWBWindow opportunistically advances the replicated durable
// watermark of a buffered file to the landed prefix, bounding how far a
// failover can roll the size back.
func (r *ReplicaServer) syncWBWindow(p sim.Proc, name string) {
	s := r.s
	low, dirty := r.wbLow[name]
	if !dirty || s.wb == nil {
		return
	}
	e := s.wb.entries[name]
	if e == nil {
		return
	}
	durable := e.bufStart
	if e.pend != nil {
		durable = e.pendStart
	}
	if durable > low {
		if err := r.commit(p, rop{Kind: ropWBFlushed, Name: name, Blocks: durable}); err != nil {
			// Leadership is gone: the watermark stays put, and the next
			// leader's takeover rolls the file back further — safe, just
			// less precise.
			return
		}
	}
}

// ---- takeover: making a new leader's world real ----

// takeover runs once per leadership, before the first request is served.
// It re-executes the LFS effects of every committed entry the log still
// retains (plus the snapshot's pending tail) — a dead predecessor may
// have committed them without acting — and reconciles write-behind state:
// whatever was buffered on the dead leader is gone, so each dirty file
// rolls back to its durable prefix and arms a deferred-write error.
func (r *ReplicaServer) takeover(p sim.Proc) {
	r.tookOver = true
	replay := append([]rop(nil), r.recentFx...)
	for _, e := range r.node.CommittedSince(r.node.Status().SnapIndex) {
		if e.Data == nil {
			continue
		}
		op, err := decodeRop(e.Data)
		if err != nil {
			continue
		}
		replay = append(replay, op)
	}
	for _, op := range replay {
		r.replayEffect(p, op)
		r.breathe(p)
		if r.dead.Load() || r.node.Status().Role != raft.Leader {
			r.tookOver = false
			return
		}
	}
	names := make([]string, 0, len(r.wbLow))
	for name := range r.wbLow {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if r.s.wb != nil && r.s.wb.entries[name] != nil {
			// Our own live buffer (we led before without losing it).
			continue
		}
		ent, ok := r.s.dir[name]
		if !ok {
			continue
		}
		prefix, err := r.wbRecoverSize(p, ent, r.wbLow[name])
		if err != nil {
			prefix = r.wbLow[name]
		}
		fail := rop{
			Kind:   ropWBFail,
			Name:   name,
			Blocks: prefix,
			ErrS: fmt.Sprintf("%s: %s: leader failover with a dirty write-behind buffer; size rolled back to %d durable blocks",
				ErrDeferredWrite.Error(), name, prefix),
		}
		if cerr := r.commit(p, fail); cerr != nil {
			r.tookOver = false
			return
		}
	}
}

// breathe performs the leader's consensus duties between takeover effect
// replays: step queued consensus traffic (parking client requests for
// after the takeover), tick the heartbeat schedule, and transmit. Effect
// replay is real disk I/O; without breathing, a replay tail longer than
// the peers' election timeout goes silent, the peers elect over the new
// leader's head, and — since every new leader must take over again — the
// replica set livelocks in flapping elections.
func (r *ReplicaServer) breathe(p sim.Proc) {
	for {
		m, ok := r.s.port.TryRecv(p)
		if !ok {
			break
		}
		if isRaftMsg(m.Body) {
			r.node.Step(m.Body, p.Now())
		} else {
			r.parked = append(r.parked, m)
		}
	}
	r.node.Tick(p.Now())
	r.pump(p)
}

// replayEffect idempotently re-executes one entry's LFS side effect.
func (r *ReplicaServer) replayEffect(p sim.Proc, op rop) {
	s := r.s
	switch op.Kind {
	case ropCreate:
		_ = s.lfsCreate(p, op.Meta.Nodes, op.Meta.LFSFileID, false, true)
	case ropDelete:
		_, _ = r.effectDelete(p, op.Meta)
	case ropWrite:
		ent, ok := s.dir[op.Name]
		if !ok || ent.meta.FileID != op.Meta.FileID {
			// The file was deleted (or replaced) later in the log; the
			// write's effect is moot.
			return
		}
		written, err := s.lfsWriteN(p, ent, op.At, op.Data)
		if err != nil && op.At+int64(op.N) >= ent.meta.Blocks {
			// The replay cannot land and the entry owns the file's tail:
			// shrink the committed size to the durable prefix and forget
			// the op's success record.
			fix := rop{Kind: ropFixup, Client: op.Client, Op: op.Op, Name: op.Name, Blocks: op.At + int64(written)}
			if cerr := r.commit(p, fix); cerr != nil {
				// Leadership is gone mid-takeover; the loop above aborts
				// and the next leader replays this entry again.
				return
			}
		}
	}
}

// effectDelete removes the constituent LFS files of a (already
// unregistered) file, tolerating nodes that never had it.
func (r *ReplicaServer) effectDelete(p sim.Proc, meta Meta) (int, error) {
	s := r.s
	op := lfs.DeleteReq{FileID: meta.LFSFileID}
	ids := make([]uint64, 0, len(meta.Nodes))
	for _, n := range meta.Nodes {
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
		if err := resp.Status.Err(); err != nil && !errors.Is(err, efs.ErrNotFound) && firstErr == nil {
			firstErr = err
		}
	}
	if gerr != nil && firstErr == nil {
		firstErr = gerr
	}
	if firstErr != nil {
		return freed, fmt.Errorf("%w: %v", ErrLFSFailed, firstErr)
	}
	return freed, nil
}

// wbRecoverSize computes the durable contiguous prefix of a wb-dirty file
// after a failover: per-node LFS stats give each node's landed block
// count, and the prefix ends at the first global block whose node ran
// out. This is refreshSize's sum made hole-aware — the dead leader's
// in-flight window may have landed on some nodes and not others.
func (r *ReplicaServer) wbRecoverSize(p sim.Proc, ent *dirent, low int64) (int64, error) {
	s := r.s
	op := lfs.StatReq{FileID: ent.meta.LFSFileID}
	ids := make([]uint64, 0, len(ent.meta.Nodes))
	for _, n := range ent.meta.Nodes {
		id, err := s.lc.Start(msg.Addr{Node: n, Port: lfs.PortName}, op, lfs.WireSize(op))
		if err != nil {
			return low, fmt.Errorf("%w: %v", ErrLFSFailed, err)
		}
		ids = append(ids, id)
	}
	ms, err := s.lc.GatherTimeout(ids, s.cfg.LFSTimeout)
	if err != nil {
		return low, fmt.Errorf("%w: %v", ErrLFSFailed, err)
	}
	counts := make(map[msg.NodeID]int64, len(ms))
	var total int64
	for i, m := range ms {
		resp := m.Body.(lfs.StatResp)
		if err := resp.Status.Err(); err != nil {
			return low, fmt.Errorf("%w: %v", ErrLFSFailed, err)
		}
		counts[ent.meta.Nodes[i]] = int64(resp.Info.Blocks)
		total += int64(resp.Info.Blocks)
	}
	l, err := distrib.New(ent.meta.Spec)
	if err != nil {
		return low, err
	}
	used := make(map[msg.NodeID]int64, len(counts))
	var g int64
	for g = 0; g < total; g++ {
		node := ent.meta.Nodes[l.NodeFor(g)]
		used[node]++
		if used[node] > counts[node] {
			break
		}
	}
	return g, nil
}

// ---- replicated operation handlers ----

func (r *ReplicaServer) rcreate(p sim.Proc, b CreateReq, from msg.Addr) (Meta, error) {
	s := r.s
	if b.Spec.Kind == distrib.Disordered {
		return Meta{}, fmt.Errorf("%w: disordered placement is unsupported on a replicated server", ErrBadArg)
	}
	meta, next, err := s.planCreate(b)
	if err != nil {
		// Unlike the single server, a rejected create burns no id: the
		// burn would be unreplicated state.
		return Meta{}, err
	}
	op := rop{Kind: ropCreate, Client: from, Op: b.OpID, Name: b.Name, Meta: meta, NextID: next}
	if err := r.commit(p, op); err != nil {
		return Meta{}, err
	}
	if err := s.lfsCreate(p, meta.Nodes, meta.LFSFileID, false, true); err != nil {
		fix := rop{Kind: ropFixup, Client: from, Op: b.OpID, Name: b.Name, Blocks: -1}
		if cerr := r.commit(p, fix); cerr != nil {
			return Meta{}, cerr
		}
		return Meta{}, err
	}
	return meta, nil
}

func (r *ReplicaServer) rdelete(p sim.Proc, b DeleteReq, from msg.Addr) (int, error) {
	s := r.s
	ent, ok := s.dir[b.Name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, b.Name)
	}
	s.wbDrop(p, ent) // quiesce in-flight buffered writes; the file dies anyway
	meta := ent.meta
	op := rop{Kind: ropDelete, Client: from, Op: b.OpID, Name: b.Name, Meta: meta}
	if err := r.commit(p, op); err != nil {
		return 0, err
	}
	return r.effectDelete(p, meta)
}

func (r *ReplicaServer) rrename(p sim.Proc, b RenameReq, from msg.Addr) (Meta, error) {
	s := r.s
	if b.Name == "" || b.NewName == "" {
		return Meta{}, fmt.Errorf("%w: empty name", ErrBadArg)
	}
	ent, ok := s.dir[b.Name]
	if !ok {
		return Meta{}, fmt.Errorf("%w: %s", ErrNotFound, b.Name)
	}
	if b.NewName == b.Name {
		return ent.meta, nil
	}
	if _, exists := s.dir[b.NewName]; exists {
		return Meta{}, fmt.Errorf("%w: %s", ErrExists, b.NewName)
	}
	if _, err := r.drainWB(p, b.Name, from, b.OpID); err != nil {
		return Meta{}, err
	}
	op := rop{Kind: ropRename, Client: from, Op: b.OpID, Name: b.Name, New: b.NewName}
	if err := r.commit(p, op); err != nil {
		return Meta{}, err
	}
	if moved, ok := s.dir[b.NewName]; ok {
		return moved.meta, nil
	}
	return Meta{}, fmt.Errorf("%w: %s", ErrNotFound, b.Name)
}

func (r *ReplicaServer) rrelease(p sim.Proc, b ReleaseReq, from msg.Addr) (Meta, error) {
	s := r.s
	ent, ok := s.dir[b.Name]
	if !ok {
		return Meta{}, fmt.Errorf("%w: %s", ErrNotFound, b.Name)
	}
	s.wbDrop(p, ent)
	meta := ent.meta
	op := rop{Kind: ropRelease, Client: from, Op: b.OpID, Name: b.Name}
	if err := r.commit(p, op); err != nil {
		return Meta{}, err
	}
	return meta, nil
}

func (r *ReplicaServer) ropen(p sim.Proc, b OpenReq, from msg.Addr) (Meta, error) {
	s := r.s
	if _, ok := s.dir[b.Name]; !ok {
		return Meta{}, fmt.Errorf("%w: %s", ErrNotFound, b.Name)
	}
	if _, err := r.drainWB(p, b.Name, from, 0); err != nil {
		return Meta{}, err
	}
	op := rop{Kind: ropOpen, Client: from, Name: b.Name}
	if err := r.commit(p, op); err != nil {
		return Meta{}, err
	}
	if ent, ok := s.dir[b.Name]; ok {
		return ent.meta, nil
	}
	return Meta{}, fmt.Errorf("%w: %s", ErrNotFound, b.Name)
}

func (r *ReplicaServer) rstat(p sim.Proc, name string, from msg.Addr) (Meta, error) {
	s := r.s
	if _, ok := s.dir[name]; !ok {
		return Meta{}, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if _, err := r.drainWB(p, name, from, 0); err != nil {
		return Meta{}, err
	}
	if !r.leaseOK(p) {
		return Meta{}, r.notLeaderError()
	}
	if ent, ok := s.dir[name]; ok {
		return ent.meta, nil
	}
	return Meta{}, fmt.Errorf("%w: %s", ErrNotFound, name)
}

func (r *ReplicaServer) rflush(p sim.Proc, b FlushReq, from msg.Addr) (int, error) {
	s := r.s
	if b.Name == "" {
		if err := r.drainWBAll(p, from, b.OpID); err != nil {
			return 0, err
		}
		if !r.leaseOK(p) {
			return 0, r.notLeaderError()
		}
		return 0, s.syncNodes(p, s.nodes)
	}
	ent, ok := s.dir[b.Name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, b.Name)
	}
	flushed, err := r.drainWB(p, b.Name, from, b.OpID)
	if err != nil {
		return flushed, err
	}
	if !r.leaseOK(p) {
		return flushed, r.notLeaderError()
	}
	return flushed, s.syncNodes(p, ent.meta.Nodes)
}

func (r *ReplicaServer) rseqWrite(p sim.Proc, b SeqWriteReq, from msg.Addr) error {
	s := r.s
	ent, ok := s.dir[b.Name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, b.Name)
	}
	if err := r.surfaceDeferred(p, b.Name, from, b.OpID); err != nil {
		return err
	}
	if s.wb != nil {
		if !r.leaseOK(p) {
			return r.notLeaderError()
		}
		if _, dirty := r.wbLow[b.Name]; !dirty {
			mark := rop{Kind: ropWBDirty, Name: b.Name, Blocks: ent.meta.Blocks}
			if err := r.commit(p, mark); err != nil {
				return err
			}
		}
		if err := s.wbAppend(p, ent, b.Data); err != nil {
			// A window flush inside the buffer failed and acknowledged
			// blocks rolled back; replicate the rollback under this op.
			fail := rop{Kind: ropWBFail, Client: from, Op: b.OpID, Name: b.Name, Blocks: ent.meta.Blocks, ErrS: err.Error()}
			if cerr := r.commit(p, fail); cerr != nil {
				return cerr
			}
			return err
		}
		r.syncWBWindow(p, b.Name)
		return nil
	}
	_, err := r.writeLogged(p, ent, ent.meta.Blocks, [][]byte{b.Data}, b.OpID, from)
	return err
}

// writeLogged commits a write whose payloads ride the log (apply extends
// the size to cover it), then lands it on the storage nodes. A failed
// landing corrects the committed size via a fixup entry: appends shrink
// back to the durable prefix, interior overwrites keep the old size.
func (r *ReplicaServer) writeLogged(p sim.Proc, ent *dirent, at int64, payloads [][]byte, opID uint64, from msg.Addr) (int, error) {
	s := r.s
	old := ent.meta.Blocks
	op := rop{
		Kind: ropWrite, Client: from, Op: opID, Name: ent.meta.Name,
		Meta: Meta{FileID: ent.meta.FileID}, At: at, N: len(payloads), Data: payloads,
	}
	if err := r.commit(p, op); err != nil {
		return 0, err
	}
	written, err := s.lfsWriteN(p, ent, at, payloads)
	if err != nil {
		fixSize := at + int64(written)
		if old > fixSize {
			fixSize = old
		}
		fix := rop{Kind: ropFixup, Client: from, Op: opID, Name: ent.meta.Name, Blocks: fixSize}
		if cerr := r.commit(p, fix); cerr != nil {
			return written, cerr
		}
		return written, err
	}
	return written, nil
}

func (r *ReplicaServer) rseqRead(p sim.Proc, b SeqReadReq, from msg.Addr) ([]byte, bool, error) {
	blocks, eof, err := r.seqReadCommon(p, b.Name, 1, b.OpID, from)
	if err != nil {
		return nil, false, err
	}
	// The single-block protocol reports EOF only on a read past the end;
	// the last block itself arrives with EOF false (matching Server).
	if len(blocks) == 0 {
		return nil, eof, nil
	}
	return blocks[0], false, nil
}

func (r *ReplicaServer) rseqReadN(p sim.Proc, b SeqReadNReq, from msg.Addr) ([][]byte, bool, error) {
	if b.Max <= 0 {
		return nil, false, fmt.Errorf("%w: batch of %d blocks", ErrBadArg, b.Max)
	}
	max := b.Max
	if max > maxBatchBlocks {
		max = maxBatchBlocks
	}
	return r.seqReadCommon(p, b.Name, max, b.OpID, from)
}

// seqReadCommon reads up to max blocks at the client's cursor. The read
// happens first (so an error never advances the cursor), then the cursor
// movement commits through the log — making the reply healable: a
// retransmission re-reads the same recorded window.
func (r *ReplicaServer) seqReadCommon(p sim.Proc, name string, max int, opID uint64, from msg.Addr) ([][]byte, bool, error) {
	s := r.s
	ent, ok := s.dir[name]
	if !ok {
		return nil, false, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if _, err := r.drainWB(p, name, from, opID); err != nil {
		return nil, false, err
	}
	if !r.leaseOK(p) {
		return nil, false, r.notLeaderError()
	}
	var pos int64
	if cur, open := s.cursors[cursorKey{client: from, name: name}]; open {
		pos = cur.readPos
	}
	if pos >= ent.meta.Blocks {
		// EOF replies commit nothing: the cursor does not move.
		return nil, true, nil
	}
	count := max
	if remain := ent.meta.Blocks - pos; int64(count) > remain {
		count = int(remain)
	}
	blocks, err := s.lfsReadN(p, ent, pos, count)
	if err != nil {
		return nil, false, err
	}
	eof := pos+int64(count) >= ent.meta.Blocks
	op := rop{Kind: ropSeqRead, Client: from, Op: opID, Name: name, At: pos, N: count, EOF: eof}
	if err := r.commit(p, op); err != nil {
		return nil, false, err
	}
	return blocks, eof, nil
}

func (r *ReplicaServer) rreadAt(p sim.Proc, name string, blockNum int64, count int, from msg.Addr) ([][]byte, error) {
	s := r.s
	if count <= 0 {
		return nil, fmt.Errorf("%w: batch of %d blocks", ErrBadArg, count)
	}
	if count > maxBatchBlocks {
		count = maxBatchBlocks
	}
	ent, ok := s.dir[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if _, err := r.drainWB(p, name, from, 0); err != nil {
		return nil, err
	}
	if !r.leaseOK(p) {
		return nil, r.notLeaderError()
	}
	if blockNum < 0 || blockNum >= ent.meta.Blocks {
		return nil, fmt.Errorf("%w: block %d of %d", ErrEOF, blockNum, ent.meta.Blocks)
	}
	if remain := ent.meta.Blocks - blockNum; int64(count) > remain {
		count = int(remain)
	}
	return s.lfsReadN(p, ent, blockNum, count)
}

func (r *ReplicaServer) rwriteAt(p sim.Proc, name string, blockNum int64, payloads [][]byte, opID uint64, from msg.Addr) (int, error) {
	s := r.s
	ent, ok := s.dir[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	for _, payload := range payloads {
		if len(payload) > PayloadBytes {
			return 0, fmt.Errorf("%w: payload %d exceeds %d", ErrBadArg, len(payload), PayloadBytes)
		}
	}
	if len(payloads) == 0 {
		return 0, nil
	}
	if len(payloads) > maxBatchBlocks {
		return 0, fmt.Errorf("%w: batch of %d exceeds %d blocks", ErrBadArg, len(payloads), maxBatchBlocks)
	}
	if _, err := r.drainWB(p, name, from, opID); err != nil {
		return 0, err
	}
	if blockNum < 0 {
		blockNum = ent.meta.Blocks
	}
	if blockNum > ent.meta.Blocks {
		return 0, fmt.Errorf("%w: block %d beyond size %d", ErrBadArg, blockNum, ent.meta.Blocks)
	}
	// The whole run — overwrite, append, or both — rides the log, so a
	// retransmission heals and a failover replays the identical bytes.
	return r.writeLogged(p, ent, blockNum, payloads, opID, from)
}

// respWithErr builds the matching error reply for any request kind — the
// not-leader redirect and op-table heals need one for every operation.
func respWithErr(body any, e string) any {
	switch body.(type) {
	case CreateReq:
		return CreateResp{Err: e}
	case DeleteReq:
		return DeleteResp{Err: e}
	case RenameReq:
		return RenameResp{Err: e}
	case OpenReq:
		return OpenResp{Err: e}
	case StatReq:
		return StatResp{Err: e}
	case FlushReq:
		return FlushResp{Err: e}
	case ReleaseReq:
		return ReleaseResp{Err: e}
	case SeqReadReq:
		return SeqReadResp{Err: e}
	case SeqReadNReq:
		return SeqReadNResp{Err: e}
	case SeqWriteReq:
		return SeqWriteResp{Err: e}
	case RandReadReq:
		return RandReadResp{Err: e}
	case RandReadNReq:
		return RandReadNResp{Err: e}
	case RandWriteReq:
		return RandWriteResp{Err: e}
	case RandWriteNReq:
		return RandWriteNResp{Err: e}
	case ParallelOpenReq:
		return ParallelOpenResp{Err: e}
	case ParallelReadReq:
		return ParallelReadResp{Err: e}
	case ParallelWriteReq:
		return ParallelWriteResp{Err: e}
	case CloseJobReq:
		return CloseJobResp{Err: e}
	case ListReq:
		return ListResp{Err: e}
	case GetInfoReq:
		return GetInfoResp{Err: e}
	case HealthReq:
		return HealthResp{Err: e}
	case RepairNodeReq:
		return RepairNodeResp{Err: e}
	case FsckReq:
		return FsckResp{Err: e}
	case ScrubReq:
		return ScrubResp{Err: e}
	case RecoveryReq:
		return RecoveryResp{Err: e}
	default:
		return CloseJobResp{Err: e}
	}
}
