package fault

import (
	"fmt"
	"sort"
	"time"

	"bridge/internal/sim"
)

// EventKind is a scheduled whole-node action.
type EventKind uint8

const (
	// Crash fail-stops a node at the scheduled time: its disk fails and
	// its service ports close.
	Crash EventKind = iota + 1
	// Restart power-cycles a crashed node: the disk comes back with its
	// surviving blocks, the volume is re-mounted (and bitmap-repaired),
	// and the services restart. Metadata the node had not written through
	// before the crash is lost — online repair at the replica layer is
	// what restores full redundancy.
	Restart
	// Kill power-fails a node with kill-9 semantics: unsynced writes in
	// the disk's volatile cache are lost (a seeded prefix survives, the
	// first lost write may land torn — see CrashModel) before the ports
	// close. Requires a CrashController; falls back to Crash otherwise.
	Kill
)

func (k EventKind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Restart:
		return "restart"
	case Kill:
		return "kill"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// NodeEvent is one scheduled action on a storage node (0-based index).
type NodeEvent struct {
	At   time.Duration
	Node int
	Kind EventKind
}

// NodeController is what the schedule driver needs from the cluster;
// *core.Cluster implements it.
type NodeController interface {
	FailNode(i int)
	RestartNode(i int)
}

// CrashController is the optional power-failure side of a controller:
// CrashNode drops node i's unsynced disk writes (per the installed crash
// hook) before failing it. *core.Cluster implements it.
type CrashController interface {
	CrashNode(i int, now time.Duration)
}

// NodeSchedule adds events to the crash/restart schedule executed by Drive.
func (in *Injector) NodeSchedule(events ...NodeEvent) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.schedule = append(in.schedule, events...)
}

// Drive spawns a process that executes the node schedule at its virtual
// times, then exits. Call after the cluster is up and before Wait.
func (in *Injector) Drive(rt sim.Runtime, ctl NodeController) {
	in.mu.Lock()
	events := append([]NodeEvent(nil), in.schedule...)
	in.mu.Unlock()
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	rt.Go("fault-driver", func(p sim.Proc) {
		for _, ev := range events {
			if d := ev.At - p.Now(); d > 0 {
				p.Sleep(d)
			}
			switch ev.Kind {
			case Crash:
				in.m.nodeCrashes.Add(1)
				in.emitLocked(p.Now(), "fault.crash", "node %d", ev.Node)
				ctl.FailNode(ev.Node)
			case Restart:
				in.m.nodeRestarts.Add(1)
				in.emitLocked(p.Now(), "fault.restart", "node %d", ev.Node)
				ctl.RestartNode(ev.Node)
			case Kill:
				in.emitLocked(p.Now(), "fault.kill", "node %d", ev.Node)
				if cc, ok := ctl.(CrashController); ok {
					in.m.nodeKills.Add(1)
					cc.CrashNode(ev.Node, p.Now())
				} else {
					in.m.nodeCrashes.Add(1)
					ctl.FailNode(ev.Node)
				}
			}
		}
	})
}

// emitLocked is emit, untraced, for callers that do not hold in.mu.
func (in *Injector) emitLocked(now time.Duration, kind, format string, args ...any) {
	in.mu.Lock()
	in.emit(now, 0, kind, format, args...)
	in.mu.Unlock()
}
