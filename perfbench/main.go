// Command perfbench is the repository's two-clock benchmark. It runs one
// closed-loop workload through the public bridge facade under the
// deterministic virtual clock, checks every output against a shadow copy
// made from the seed, and prints end-to-end metrics on both clocks: the
// simulated one (the model's throughput and latency) and the host one
// (what the simulator costs to run). With --trace 1 it instead makes traced
// runs that break the workload down by layer. The last line of output is
// one JSON object; see README.md for the metrics and the layer map.
//
//	go run . --workload naive_rw --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"bridge"
)

// spanCap bounds the traced run's recorder; a run that fills it fails, so
// no per-layer number is computed from a truncated trace.
const spanCap = 1 << 21

// minRounds is the fewest rounds an untraced run medians over.
const minRounds = 3

// memProfileRate is the heap sampling interval in bytes for traced runs.
const memProfileRate = 16 << 10

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Float64("seconds", 10, "host seconds to measure for")
	trace := fl.Int("trace", 0, "1 makes traced runs and prints the per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q or bad --trace %d\n", *name, *trace)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *trace == 1 {
		runtime.MemProfileRate = memProfileRate
		res, err = tracedRun(w, *seed, budget)
	} else {
		res, err = plainRun(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := res.print(stdout, w, *seed, *trace == 1); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if !res.correct {
		return 1
	}
	return 0
}

// round is one fresh cluster: setup, then the measured phase.
type round struct {
	variant int
	setup   time.Duration // host
	wall    time.Duration // host, measured phase
	cpu     time.Duration // host user+sys, measured phase
	// scale converts this round's host times to reference seconds; it
	// comes from the calibration kernel timed just before and just after
	// the round.
	scale  float64
	allocs uint64
	bytes  uint64
	calls  *calls
	// sim is this round's own simulated metrics, and workload its
	// workload-measured per-layer numbers: rounds of one variant must
	// agree on both exactly.
	sim      map[string]float64
	workload map[string]float64
	// Traced rounds only: the per-layer sample, the spans kept, the spans
	// never closed and the spans dropped at the cap.
	layer     *layerSample
	spans     int
	openSpans int
	dropped   int
}

// ref returns host time d of this round in reference seconds.
func (r *round) ref(d time.Duration) float64 { return d.Seconds() * r.scale }

// variantSeed derives the input seed of one of a run's variants.
func variantSeed(seed int64, v int) int64 { return seed + int64(v)<<32 }

func runRound(w workloadSpec, seed int64, v int, tiny, traced, corrupt bool, host *hostShares) (*round, error) {
	seed = variantSeed(seed, v)
	wl := w.make(seed, tiny)
	if corrupt {
		wl.corrupt()
	}
	cfg := wl.config()
	if traced {
		cfg.Obs = &bridge.ObsConfig{SpanCap: spanCap}
	}
	// Each round starts from a collected heap, so garbage from the last
	// one, or from the kernel, does not land in its timings.
	runtime.GC()
	k0 := kernel()
	runtime.GC()
	r := &round{variant: v}
	var insp bridge.Inspector
	var v0, v1 time.Duration
	var before, after counters
	t0 := time.Now()
	sys, err := bridge.New(cfg)
	if err != nil {
		return nil, err
	}
	err = sys.Run(func(s *bridge.Session) error {
		insp = s.Inspect()
		s.Network().SetFault(newJitter(seed))
		if err := wl.setup(s); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		c := newCalls(s.Now)
		r.calls = c
		var heap0 heapSnapshot
		var prof *cpuProfile
		if traced {
			before = readCounters(s)
			heap0 = takeHeapSnapshot()
			var err error
			if prof, err = startCPUProfile(); err != nil {
				return err
			}
		}
		r.setup = time.Since(t0)
		cpu0, a0 := cpuTime(), readAllocs()
		h0 := time.Now()
		v0 = s.Now()
		err := wl.measure(s, c)
		v1 = s.Now()
		r.wall = time.Since(h0)
		r.cpu = cpuTime() - cpu0
		a1 := readAllocs()
		r.allocs, r.bytes = a1[0]-a0[0], a1[1]-a0[1]
		if traced {
			prof.stop()
			host.addHeapDelta(heap0, takeHeapSnapshot())
			if perr := prof.charge(host); perr != nil && err == nil {
				err = perr
			}
			after = readCounters(s)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	// The clock reads through the session; dropping it lets the cluster
	// be collected while the round's numbers are kept.
	r.calls.now = nil
	runtime.GC()
	r.scale = speedScale((k0 + kernel()) / 2)
	r.sim, _ = simMetrics([]*calls{r.calls})
	r.workload = wl.layers()
	if traced {
		spans := insp.Spans()
		r.spans, r.openSpans, r.dropped = len(spans), insp.OpenSpans(), insp.DroppedSpans()
		r.layer = newLayerSample(before, after, spans, v0, v1, r.calls, cfg.Nodes)
	}
	return r, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

var allocSamples = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}

func readAllocs() [2]uint64 {
	metrics.Read(allocSamples)
	return [2]uint64{allocSamples[0].Value.Uint64(), allocSamples[1].Value.Uint64()}
}

// result is one benchmark run.
type result struct {
	rounds    []*round // untraced runs: every round; traced runs: the traced ones
	untraced  []*round // traced runs: the untraced rounds
	variants  int
	correct   bool
	problems  []string
	attempted int
	failed    int
	metrics   map[string]float64
	notes     map[string]string
	host      *hostShares
}

func (res *result) fail(format string, args ...any) {
	res.correct = false
	res.problems = append(res.problems, fmt.Sprintf(format, args...))
}

// check counts calls and wrong outputs, and requires every round to
// reproduce the simulated results of the first round of its variant:
// same inputs, same virtual-time results.
func (res *result) check(all []*round) {
	first := map[int]*round{}
	for _, r := range all {
		res.attempted += r.calls.attempted
		res.failed += r.calls.failed
		if r.calls.wrong > 0 {
			res.fail("%d wrong outputs, first: %s", r.calls.wrong, r.calls.firstWrong)
		}
		f, ok := first[r.variant]
		if !ok {
			first[r.variant] = r
			continue
		}
		if !reflect.DeepEqual(r.sim, f.sim) || !reflect.DeepEqual(r.workload, f.workload) {
			res.fail("simulated metrics differ between rounds of variant %d", r.variant)
		}
	}
}

// keep lets the i'th round of a sequence hold on to its per-call samples
// only if the pooled metrics use it, so a run's memory does not grow with
// its length and peak_rss_mb measures the program, not the run.
func (res *result) keep(r *round, i int) {
	if i >= res.variants {
		r.calls.forget()
		r.layer = nil
	}
}

// pooled returns the first round of each variant.
func (res *result) pooled(rs []*round) []*round { return rs[:res.variants] }

// workloadLayers averages the workload-measured per-layer numbers over
// the variants; a workload that does not make those calls reports 0.
func (res *result) workloadLayers(m map[string]float64) {
	for _, k := range perLayerFromWorkload {
		var sum float64
		for _, r := range res.pooled(res.rounds) {
			sum += r.workload[k]
		}
		m[k] = sum / float64(res.variants)
	}
}

// plainRun repeats untraced rounds, cycling through the variants, until
// the budget is spent. The simulated metrics pool one round of each
// variant; the host metrics are medians over every round.
func plainRun(w workloadSpec, seed int64, budget time.Duration) (*result, error) {
	start := time.Now()
	res := &result{correct: true, variants: w.variants}
	for len(res.rounds) < max(minRounds, w.variants) || time.Since(start) < budget {
		r, err := runRound(w, seed, len(res.rounds)%w.variants, false, false, false, nil)
		if err != nil {
			return nil, err
		}
		res.keep(r, len(res.rounds))
		res.rounds = append(res.rounds, r)
	}
	res.check(res.rounds)
	var pool []*calls
	for _, r := range res.pooled(res.rounds) {
		pool = append(pool, r.calls)
	}
	m, notes := simMetrics(pool)
	perOp := func(r *round, v uint64) float64 { return float64(v) / float64(r.calls.ops) }
	m["setup_s"] = median(res.rounds, func(r *round) float64 { return r.ref(r.setup) })
	m["host_wall_s"] = median(res.rounds, func(r *round) float64 { return r.ref(r.wall) })
	m["host_cpu_s"] = median(res.rounds, func(r *round) float64 { return r.ref(r.cpu) })
	m["host_allocs_per_op"] = median(res.rounds, func(r *round) float64 { return perOp(r, r.allocs) })
	m["host_alloc_kb_per_op"] = median(res.rounds, func(r *round) float64 { return perOp(r, r.bytes) / 1024 })
	m["peak_rss_mb"] = peakRSSMB()
	for _, k := range []string{"host_allocs_per_op", "host_alloc_kb_per_op"} {
		notes[k] = fmt.Sprintf("median of %d rounds", len(res.rounds))
	}
	for k, d := range map[string]func(*round) time.Duration{
		"setup_s":     func(r *round) time.Duration { return r.setup },
		"host_wall_s": func(r *round) time.Duration { return r.wall },
		"host_cpu_s":  func(r *round) time.Duration { return r.cpu },
	} {
		raw := median(res.rounds, func(r *round) float64 { return d(r).Seconds() })
		notes[k] = fmt.Sprintf("median of %d rounds in reference seconds; %.6g s unscaled", len(res.rounds), raw)
	}
	notes["host_speed"] = fmt.Sprintf("host ran at %.3g of reference speed (median over rounds)",
		median(res.rounds, func(r *round) float64 { return r.scale }))
	res.metrics, res.notes = m, notes
	return res, nil
}

// tracedRun alternates untraced and traced rounds, cycling through the
// variants, until every variant has been traced and the budget is spent.
// Per-layer metrics pool one traced round of each variant; the untraced
// rounds give the per-call host times and the tracing overhead's base.
func tracedRun(w workloadSpec, seed int64, budget time.Duration) (*result, error) {
	start := time.Now()
	res := &result{correct: true, variants: w.variants, host: newHostShares(), notes: map[string]string{}}
	for len(res.rounds) < w.variants || time.Since(start) < budget {
		v := len(res.rounds) % w.variants
		u, err := runRound(w, seed, v, false, false, false, nil)
		if err != nil {
			return nil, err
		}
		res.keep(u, len(res.untraced))
		res.untraced = append(res.untraced, u)
		t, err := runRound(w, seed, v, false, true, false, res.host)
		if err != nil {
			return nil, err
		}
		res.keep(t, len(res.rounds))
		res.rounds = append(res.rounds, t)
	}
	res.check(append(append([]*round(nil), res.untraced...), res.rounds...))
	var samples []*layerSample
	for _, r := range res.rounds {
		if r.openSpans != 0 {
			res.fail("%d spans never closed", r.openSpans)
		}
		if r.dropped != 0 || r.spans >= spanCap {
			res.fail("%d spans kept, %d dropped: the trace hit its cap of %d", r.spans, r.dropped, spanCap)
		}
	}
	for _, r := range res.pooled(res.rounds) {
		samples = append(samples, r.layer)
	}
	m := virtualLayers(samples)
	res.workloadLayers(m)
	for k, v := range res.host.fracs() {
		m[k] = v
	}
	for k := classRead; k <= classMeta; k++ {
		m["bridge."+classNames[k]+".host_us"] = median(res.untraced, func(r *round) float64 { return r.scale * r.calls.hostUSPerCall(k) })
	}
	m["trace.host_overhead_frac"] = median(res.rounds, func(r *round) float64 { return r.ref(r.wall) }) /
		median(res.untraced, func(r *round) float64 { return r.ref(r.wall) })
	res.metrics = m
	return res, nil
}

// perLayerFromWorkload are the per-layer metrics a workload measures by
// timing its own calls.
var perLayerFromWorkload = []string{
	"tools.copy_ms", "tools.sort_local_ms", "tools.sort_merge_ms",
	"replica.mirror.storage_blocks_per_user_block", "replica.parity.storage_blocks_per_user_block",
	"replica.rs.storage_blocks_per_user_block",
	"replica.mirror.degraded_read_ms", "replica.parity.degraded_read_ms", "replica.rs.degraded_read_ms",
}

func median(rs []*round, f func(*round) float64) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// metricDef is one reported metric with its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"}, {"host_wall_s", "s"}, {"host_cpu_s", "s"},
	{"host_allocs_per_op", "count"}, {"host_alloc_kb_per_op", "KB"}, {"peak_rss_mb", "MB"},
	{"sim_read_mb_s", "MB/s"}, {"sim_write_mb_s", "MB/s"}, {"sim_meta_ops_s", "1/s"},
	{"sim_read_p50_ms", "ms"}, {"sim_read_p99_ms", "ms"},
	{"sim_write_p50_ms", "ms"}, {"sim_write_p99_ms", "ms"},
	{"sim_meta_p50_ms", "ms"}, {"sim_meta_p99_ms", "ms"},
}

func perLayerDefs() []metricDef {
	var defs []metricDef
	for _, m := range hostModules {
		defs = append(defs, metricDef{m + ".host_cpu_frac", "fraction"}, metricDef{m + ".host_alloc_frac", "fraction"})
	}
	defs = append(defs,
		metricDef{"bridge.read.host_us", "us"}, metricDef{"bridge.write.host_us", "us"},
		metricDef{"bridge.meta.host_us", "us"}, metricDef{"trace.host_overhead_frac", "ratio"},
		metricDef{"efs.cache_hit_ratio", "ratio"}, metricDef{"efs.journal_blocks_per_user_block", "ratio"},
		metricDef{"core.ra_hit_ratio", "ratio"}, metricDef{"core.wb_blocks_per_flush", "blocks"},
		metricDef{"core.client_retries_per_kop", "count"}, metricDef{"core.client.self_ms_per_op", "ms"},
		metricDef{"core.server.self_ms_per_op", "ms"}, metricDef{"core.server.queue_wait_ms_per_op", "ms"},
		metricDef{"core.meta_tail.calls", "count"}, metricDef{"core.meta_tail.latency_ms", "ms"},
		metricDef{"core.meta_tail.retries_per_call", "count"}, metricDef{"core.meta_tail.server_ms", "ms"},
		metricDef{"core.meta_tail.server_queue_ms", "ms"}, metricDef{"core.meta_tail.client_ms", "ms"},
		metricDef{"raft.commit_wait_ms_per_proposal", "ms"}, metricDef{"raft.entries_per_meta_op", "ratio"},
		metricDef{"raft.redirects_per_kop", "count"}, metricDef{"raft.elections", "count"},
		metricDef{"msg.sent_per_op", "count"}, metricDef{"msg.bytes_per_op", "bytes"},
		metricDef{"msg.remote_frac", "fraction"},
		metricDef{"lfs.self_ms_per_op", "ms"}, metricDef{"lfs.queue_wait_ms_per_op", "ms"},
		metricDef{"lfs.blocks_per_request", "blocks"},
		metricDef{"disk.self_ms_per_op", "ms"}, metricDef{"disk.busy_frac", "fraction"},
		metricDef{"disk.writes_per_user_block", "ratio"},
		metricDef{"tools.copy_ms", "ms"}, metricDef{"tools.sort_local_ms", "ms"}, metricDef{"tools.sort_merge_ms", "ms"},
		metricDef{"replica.reconstructions_per_kop", "count"},
	)
	for _, e := range engineNames {
		defs = append(defs, metricDef{"replica." + e + ".storage_blocks_per_user_block", "ratio"},
			metricDef{"replica." + e + ".degraded_read_ms", "ms"})
	}
	return defs
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (res *result) print(out io.Writer, w workloadSpec, seed int64, traced bool) error {
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	fmt.Fprintf(out, "perfbench %s seed %d: %d %s rounds over %d input variants (%s)\n", w.name, seed, len(res.rounds), mode, res.variants, w.why)
	defs := endToEnd
	if traced {
		defs = perLayerDefs()
	}
	jr := jsonResult{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v := res.metrics[d.name]
		jr.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "  %-44s %14.6g %-8s %s\n", d.name, v, d.unit, res.notes[d.name])
	}
	fmt.Fprintf(out, "  %-44s %14.6g %-8s %d failed of %d attempted calls\n", "error_rate", ratio(float64(res.failed), float64(res.attempted)), "ratio", res.failed, res.attempted)
	if n, ok := res.notes["host_speed"]; ok {
		fmt.Fprintf(out, "  %s\n", n)
	}
	if res.failed > 0 {
		for _, r := range append(append([]*round(nil), res.untraced...), res.rounds...) {
			if r.calls.firstErr != nil {
				fmt.Fprintf(out, "  first error: %v\n", r.calls.firstErr)
				break
			}
		}
	}
	for _, p := range res.problems {
		fmt.Fprintf(out, "  INCORRECT: %s\n", p)
	}
	b, err := json.Marshal(jr)
	if err != nil {
		return fmt.Errorf("result does not marshal: %w", err)
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}
