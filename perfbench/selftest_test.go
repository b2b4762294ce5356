package main

import (
	"reflect"
	"testing"
	"time"
)

// The self-test runs every workload at a tiny size. It needs the Go
// toolchain only:
//
//	cd perfbench && go test .

// TestSameSeedSameSimulation requires two traced rounds of one seed, and
// an untraced one, to agree exactly on every simulated-clock number: the
// end-to-end sim_* metrics and the virtual per-layer metrics. Spans charge
// no virtual time, so tracing must not move them either.
func TestSameSeedSameSimulation(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var rounds []*round
			for _, traced := range []bool{true, true, false} {
				r, err := runRound(w, 7, 0, true, traced, false, newHostShares())
				if err != nil {
					t.Fatal(err)
				}
				if r.calls.wrong > 0 || r.calls.failed > 0 {
					t.Fatalf("%d wrong outputs (%s), %d failed calls (%v)", r.calls.wrong, r.calls.firstWrong, r.calls.failed, r.calls.firstErr)
				}
				rounds = append(rounds, r)
			}
			a, b, plain := rounds[0], rounds[1], rounds[2]
			if !reflect.DeepEqual(a.sim, b.sim) || !reflect.DeepEqual(a.sim, plain.sim) {
				t.Errorf("sim metrics differ:\n%v\n%v\n%v", a.sim, b.sim, plain.sim)
			}
			if !reflect.DeepEqual(a.workload, b.workload) || !reflect.DeepEqual(a.workload, plain.workload) {
				t.Errorf("workload per-layer metrics differ:\n%v\n%v\n%v", a.workload, b.workload, plain.workload)
			}
			la, lb := virtualLayers([]*layerSample{a.layer}), virtualLayers([]*layerSample{b.layer})
			if !reflect.DeepEqual(la, lb) {
				t.Errorf("virtual per-layer metrics differ:\n%v\n%v", la, lb)
			}
			for _, r := range rounds[:2] {
				if r.openSpans != 0 || r.dropped != 0 || r.spans == 0 {
					t.Errorf("spans: %d kept, %d open, %d dropped", r.spans, r.openSpans, r.dropped)
				}
			}
		})
	}
}

// TestOtherSeedVerifies requires a second seed's outputs to check out.
func TestOtherSeedVerifies(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := runRound(w, 8, 1, true, false, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if r.calls.wrong > 0 || r.calls.failed > 0 {
				t.Fatalf("%d wrong outputs (%s), %d failed calls (%v)", r.calls.wrong, r.calls.firstWrong, r.calls.failed, r.calls.firstErr)
			}
			if r.calls.ops == 0 {
				t.Fatal("no operations measured")
			}
		})
	}
}

// TestCorruptShadowFails requires one changed byte in the checker's copy
// to be caught as a wrong output, not counted as an error.
func TestCorruptShadowFails(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := runRound(w, 7, 0, true, false, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			if r.calls.wrong == 0 {
				t.Fatal("a corrupted shadow byte went unnoticed")
			}
			if r.calls.failed != 0 {
				t.Fatalf("a wrong output was counted as %d failed calls", r.calls.failed)
			}
		})
	}
}

// TestDecodeOwnProfile checks the profile decoder against a real profile.
func TestDecodeOwnProfile(t *testing.T) {
	h := newHostShares()
	p, err := startCPUProfile()
	if err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	w, _ := findWorkload("naive_rw")
	for start := time.Now(); time.Since(start) < time.Second; {
		if _, err := runRound(w, 1, 0, true, false, false, nil); err != nil {
			t.Fatal(err)
		}
	}
	p.stop()
	if err := p.charge(h); err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range h.cpu {
		total += v
	}
	if total == 0 {
		t.Fatal("no CPU samples decoded")
	}
}

func TestHighPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		label string
		want  int // 1-based rank of the answer
	}{
		{5, "max", 5}, {20, "max", 20}, {21, "p52.4", 11}, {500, "p98.0", 490}, {1000, "p99", 990}, {2000, "p99", 1980},
	} {
		d := make([]time.Duration, c.n)
		for i := range d {
			d[i] = time.Duration(c.n - i)
		}
		v, label := highPercentile(d)
		if label != c.label || int(v) != c.want {
			t.Errorf("n=%d: got rank %d %s, want rank %d %s", c.n, v, label, c.want, c.label)
		}
	}
}
