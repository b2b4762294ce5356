package fault_test

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"bridge"
	"bridge/internal/fault"
	"bridge/internal/obs"
)

func obsChaosPayload(i int) []byte {
	b := make([]byte, bridge.PayloadBytes)
	for j := range b {
		b[j] = byte(i*17 + j*3)
	}
	return b
}

// obsChaosRun is what runObsChaos observed: the Inspector (valid after Run,
// once the simulation has drained), the injector, the recorded events, and
// the exported Chrome trace.
type obsChaosRun struct {
	insp   bridge.Inspector
	inj    *bridge.FaultInjector
	events []obs.Event
	trace  string
}

// runObsChaos executes a seeded chaos scenario — a lossy message window plus
// a node crash and restart mid-stream — with full observability on. Every
// hard path is exercised: client and server retries, ErrNodeDown
// fast-fails, degraded mirror writes, node repair, and resilvering.
func runObsChaos(t *testing.T, seed int64) obsChaosRun {
	t.Helper()
	const n = 30
	inj := bridge.NewFaultInjector(seed)
	inj.MsgWindow(2*time.Second, 5*time.Second, fault.MsgFaults{
		DropProb:  0.05,
		DupProb:   0.05,
		DelayProb: 0.2,
		DelayMax:  20 * time.Millisecond,
	})
	inj.NodeSchedule(
		fault.NodeEvent{At: 7 * time.Second, Node: 2, Kind: fault.Crash},
		fault.NodeEvent{At: 16 * time.Second, Node: 2, Kind: fault.Restart},
	)
	sys, err := bridge.New(bridge.Config{
		Nodes:       4,
		DiskBlocks:  2048,
		DiskLatency: time.Millisecond,
		Health:      &bridge.HealthConfig{},
		Retry:       &bridge.RetryPolicy{Attempts: 6},
		LFSTimeout:  time.Second,
		ReadAhead:   2,
		Fault:       inj,
		Obs:         &bridge.ObsConfig{SampleEvery: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var insp bridge.Inspector
	var rec *obs.Recorder
	err = sys.Run(func(s *bridge.Session) error {
		insp = s.Inspect()
		rec = s.Network().Recorder()
		s.SetTimeout(2 * time.Second)
		m, err := s.NewMirror("f")
		if err != nil {
			return fmt.Errorf("NewMirror: %w", err)
		}
		// Append through the fault window and the crash: retries, timeouts,
		// ErrNodeDown fast-fails, and degraded writes all open and close
		// spans along the way.
		for i := 0; i < n; i++ {
			if err := m.Append(obsChaosPayload(i)); err != nil {
				return fmt.Errorf("append %d at %v: %w", i, s.Now(), err)
			}
			s.Proc().Sleep(300 * time.Millisecond)
		}
		if until := 20*time.Second - s.Now(); until > 0 {
			s.Proc().Sleep(until)
		}
		if _, err := s.RepairNode(2); err != nil {
			return fmt.Errorf("RepairNode: %w", err)
		}
		if _, err := m.Resilver(); err != nil {
			return fmt.Errorf("Resilver: %w", err)
		}
		for i := int64(0); i < n; i++ {
			data, err := m.Read(i)
			if err != nil {
				return fmt.Errorf("read %d: %w", i, err)
			}
			if !bytes.Equal(data, obsChaosPayload(int(i))) {
				t.Errorf("block %d corrupted through chaos", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run (seed %d): %v", seed, err)
	}
	var trc bytes.Buffer
	if err := insp.WriteChromeTrace(&trc); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	return obsChaosRun{insp: insp, inj: inj, events: rec.Events(), trace: trc.String()}
}

// TestObsChaosSpanLifecycle proves that under retries, timeouts, node death,
// and repair, every span is closed exactly once by the time the simulation
// drains, and that failures and retransmissions are visible on the spans.
func TestObsChaosSpanLifecycle(t *testing.T) {
	insp := runObsChaos(t, corruptionSeed()).insp
	if n := insp.OpenSpans(); n != 0 {
		t.Errorf("OpenSpans = %d, want 0 after drain", n)
	}
	if n := insp.DoubleEnds(); n != 0 {
		t.Errorf("DoubleEnds = %d, want 0", n)
	}
	if n := insp.DroppedSpans(); n != 0 {
		t.Errorf("DroppedSpans = %d, want 0 (under SpanCap)", n)
	}
	errSpans, annotated := 0, 0
	for _, sp := range insp.Spans() {
		if sp.Err != "" {
			errSpans++
		}
		if len(sp.Annotations) > 0 {
			annotated++
		}
	}
	if errSpans == 0 {
		t.Error("no failed spans despite a node crash; errors should be visible on spans")
	}
	if annotated == 0 {
		t.Error("no annotated spans despite the fault window; retries should annotate")
	}
}

// TestObsChaosFaultEvents requires every injected message fault to appear
// exactly once on the obs timeline: one event per drop, duplicate, and
// delay, matching the injector's counters, and no second record of a drop.
func TestObsChaosFaultEvents(t *testing.T) {
	run := runObsChaos(t, corruptionSeed())
	kinds := map[string]int64{}
	drops := int64(0)
	for _, e := range run.events {
		kinds[e.Kind]++
		if strings.HasSuffix(e.Kind, "drop") {
			drops++
		}
	}
	for kind, counter := range map[string]string{
		"fault.drop":  "fault.msg_dropped",
		"fault.dup":   "fault.msg_duplicated",
		"fault.delay": "fault.msg_delayed",
	} {
		want := run.inj.Stats().Get(counter)
		if want == 0 {
			t.Errorf("%s = 0: the fault window never injected it", counter)
		}
		if kinds[kind] != want {
			t.Errorf("%d %s events, want %d (%s)", kinds[kind], kind, want, counter)
		}
	}
	if want := run.inj.Stats().Get("fault.msg_dropped"); drops != want {
		t.Errorf("%d drop events, want one per dropped message (%d)", drops, want)
	}
	for _, kind := range []string{"fault.crash", "fault.restart"} {
		if kinds[kind] != 1 {
			t.Errorf("%d %s events, want 1", kinds[kind], kind)
		}
	}
}

// TestObsReadRepairSpanLifecycle covers the remaining hard span path: a
// read that detects silent corruption and repairs it in place from the
// mirror copy must still close every span exactly once. A latent bad block
// found by a scrub must surface as a disk.fault event naming its disk.
func TestObsReadRepairSpanLifecycle(t *testing.T) {
	inj := bridge.NewFaultInjector(corruptionSeed())
	sys, err := bridge.New(bridge.Config{
		Nodes:       4,
		DiskBlocks:  256,
		DiskLatency: time.Millisecond,
		Fault:       inj,
		Obs:         &bridge.ObsConfig{},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var insp bridge.Inspector
	var rec *obs.Recorder
	err = sys.Run(func(s *bridge.Session) error {
		insp = s.Inspect()
		rec = s.Network().Recorder()
		m, err := s.NewMirror("mf")
		if err != nil {
			return err
		}
		for i := 0; i < 8; i++ {
			if err := m.Append(obsChaosPayload(i)); err != nil {
				return fmt.Errorf("append %d: %w", i, err)
			}
		}
		// Flip a bit in the first primary copy on node 0's medium, then
		// scrub to confirm it (invalidating the cached copy that masks it).
		ds := s.Cluster().Nodes[0].FS().DataStart()
		inj.Bitrot("disk0", ds)
		if _, err := s.Scrub(0); err != nil {
			return fmt.Errorf("scrub: %w", err)
		}
		for i := int64(0); i < 8; i++ {
			data, err := m.Read(i)
			if err != nil {
				return fmt.Errorf("read %d: %w", i, err)
			}
			if !bytes.Equal(data, obsChaosPayload(int(i))) {
				t.Errorf("block %d wrong after read-repair", i)
			}
		}
		if got := s.Metrics().Counter("bridge.readrepair_mirror"); got == 0 {
			t.Error("no mirror read-repair recorded; the corrupt read did not take the repair path")
		}
		// A latent bad superblock on node 1: only a scrub reads it, and the
		// sweep reports the I/O error instead of failing.
		inj.BadBlock("disk1", 0)
		rep, err := s.Scrub(1)
		if err != nil {
			return fmt.Errorf("scrub node 1: %w", err)
		}
		if len(rep.Errors) == 0 || rep.Errors[0].Addr != 0 {
			t.Errorf("scrub of node 1 missed the bad superblock: %+v", rep.Errors)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if n := insp.OpenSpans(); n != 0 {
		t.Errorf("OpenSpans = %d, want 0 after read-repair run", n)
	}
	if n := insp.DoubleEnds(); n != 0 {
		t.Errorf("DoubleEnds = %d, want 0", n)
	}
	diskEvents := 0
	for _, e := range rec.Events() {
		if !strings.HasPrefix(e.Kind, "disk.") {
			continue
		}
		diskEvents++
		if !strings.HasPrefix(e.Detail, "disk1 ") {
			t.Errorf("%s event does not name its disk: %q", e.Kind, e.Detail)
		}
	}
	if diskEvents == 0 {
		t.Error("no disk.* events recorded for the bad block")
	}
}

// TestObsChaosTraceReplaysExactly requires the Chrome trace of a full chaos
// run to be byte-identical across same-seed runs. When BRIDGE_TRACE_OUT is
// set the first run's trace is written there (the CI artifact).
func TestObsChaosTraceReplaysExactly(t *testing.T) {
	seed := corruptionSeed()
	tr1 := runObsChaos(t, seed).trace
	if t.Failed() {
		return
	}
	if out := os.Getenv("BRIDGE_TRACE_OUT"); out != "" {
		if err := os.WriteFile(out, []byte(tr1), 0o644); err != nil {
			t.Fatalf("write %s: %v", out, err)
		}
	}
	tr2 := runObsChaos(t, seed).trace
	if tr1 != tr2 {
		t.Error("same seed produced different Chrome traces")
	}
	tr3 := runObsChaos(t, seed+1000).trace
	if tr3 == tr1 {
		t.Error("different seed replayed the first trace exactly")
	}
}
