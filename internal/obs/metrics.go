package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// MetricKind distinguishes counters (monotonic int64), timers (accumulated
// virtual duration), and gauges (sampled instantaneous values).
type MetricKind uint8

const (
	KindCounter MetricKind = iota + 1
	KindTimer
	KindGauge
)

// String returns the kind name used in generated documentation.
func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindTimer:
		return "timer"
	case KindGauge:
		return "gauge"
	}
	return "unknown"
}

// Desc describes a registered metric.
type Desc struct {
	Name string
	Unit string
	Help string
	Kind MetricKind
}

// metric holds the live value slots. Values are atomics so Add/Set race
// cleanly with Reset and with snapshot readers; the registry mutex guards
// only the name map.
type metric struct {
	desc Desc
	n    atomic.Int64
	dur  atomic.Int64 // nanoseconds
	// gauge aggregates
	sum, max, samples atomic.Int64
}

func (m *metric) reset() {
	m.n.Store(0)
	m.dur.Store(0)
	m.sum.Store(0)
	m.max.Store(0)
	m.samples.Store(0)
}

// Registry is a set of named metrics. Handles are registered once (name,
// kind, unit, help) and then updated lock-free. The nil *Registry is valid:
// it hands out inert handles.
type Registry struct {
	mu sync.Mutex
	m  map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]*metric)}
}

// lookup finds or creates a metric. Two registrations of the same name
// must agree on kind; the later one's unit and help text win.
func (r *Registry) lookup(name string, kind MetricKind, unit, help string) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	mt, ok := r.m[name]
	if !ok {
		mt = &metric{}
		r.m[name] = mt
	} else if mt.desc.Kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v, was %v", name, kind, mt.desc.Kind))
	}
	mt.desc = Desc{Name: name, Unit: unit, Help: help, Kind: kind}
	return mt
}

// Counter registers (or finds) a counter metric and returns its handle.
func (r *Registry) Counter(name, unit, help string) Counter {
	if r == nil {
		return Counter{}
	}
	return Counter{m: r.lookup(name, KindCounter, unit, help)}
}

// Timer registers (or finds) a virtual-duration accumulator.
func (r *Registry) Timer(name, help string) Timer {
	if r == nil {
		return Timer{}
	}
	return Timer{m: r.lookup(name, KindTimer, "duration", help)}
}

// Gauge registers (or finds) a sampled-value gauge.
func (r *Registry) Gauge(name, unit, help string) Gauge {
	if r == nil {
		return Gauge{}
	}
	return Gauge{m: r.lookup(name, KindGauge, unit, help)}
}

// Get returns the named counter's value (0 if absent).
func (r *Registry) Get(name string) int64 {
	if mt := r.find(name); mt != nil {
		return mt.n.Load()
	}
	return 0
}

// GetTime returns the named timer's accumulated duration (0 if absent).
func (r *Registry) GetTime(name string) time.Duration {
	if mt := r.find(name); mt != nil {
		return time.Duration(mt.dur.Load())
	}
	return 0
}

func (r *Registry) find(name string) *metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[name]
}

// Reset zeroes every metric's value but keeps all registrations, so handles
// held by instrumented code stay live across a reset.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, mt := range r.m {
		mt.reset()
	}
}

// GaugeStats summarizes a gauge's samples since the last reset.
type GaugeStats struct {
	Samples int64
	Last    int64
	Sum     int64
	Max     int64
}

// Avg returns the mean sampled value.
func (g GaugeStats) Avg() float64 {
	if g.Samples == 0 {
		return 0
	}
	return float64(g.Sum) / float64(g.Samples)
}

// Value is one metric's description plus its current value. Exactly one of
// Count, Time, or Gauge is meaningful, per Kind.
type Value struct {
	Desc
	Count int64
	Time  time.Duration
	Gauge GaugeStats
}

// Values returns every metric's current value, sorted by name.
func (r *Registry) Values() []Value {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.m))
	for name := range r.m {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Value, 0, len(names))
	for _, name := range names {
		mt := r.m[name]
		out = append(out, Value{
			Desc:  mt.desc,
			Count: mt.n.Load(),
			Time:  time.Duration(mt.dur.Load()),
			Gauge: GaugeStats{
				Samples: mt.samples.Load(),
				Last:    mt.n.Load(),
				Sum:     mt.sum.Load(),
				Max:     mt.max.Load(),
			},
		})
	}
	return out
}

// Counter is a typed handle to a monotonically increasing metric. The zero
// handle is inert.
type Counter struct{ m *metric }

// Add increments the counter.
func (c Counter) Add(delta int64) {
	if c.m != nil {
		c.m.n.Add(delta)
	}
}

// Value returns the current count.
func (c Counter) Value() int64 {
	if c.m == nil {
		return 0
	}
	return c.m.n.Load()
}

// Timer is a typed handle to an accumulated virtual duration.
type Timer struct{ m *metric }

// Add accumulates a duration.
func (t Timer) Add(d time.Duration) {
	if t.m != nil {
		t.m.dur.Add(int64(d))
	}
}

// Value returns the accumulated duration.
func (t Timer) Value() time.Duration {
	if t.m == nil {
		return 0
	}
	return time.Duration(t.m.dur.Load())
}

// Gauge is a typed handle to a sampled instantaneous value.
type Gauge struct{ m *metric }

// Set records one sample.
func (g Gauge) Set(v int64) {
	if g.m == nil {
		return
	}
	g.m.n.Store(v)
	g.m.sum.Add(v)
	g.m.samples.Add(1)
	// Max is the maximum sample, floored at zero; the gauges here (queue
	// depths, utilization percentages) are never negative.
	for {
		old := g.m.max.Load()
		if v <= old || g.m.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// Stats returns the gauge's sample summary.
func (g Gauge) Stats() GaugeStats {
	if g.m == nil {
		return GaugeStats{}
	}
	return GaugeStats{
		Samples: g.m.samples.Load(),
		Last:    g.m.n.Load(),
		Sum:     g.m.sum.Load(),
		Max:     g.m.max.Load(),
	}
}

// WriteDoc renders a markdown reference of every help-bearing metric across
// the given value sets, merged by name and sorted.
func WriteDoc(w io.Writer, sets ...[]Value) error {
	byName := make(map[string]Desc)
	for _, set := range sets {
		for _, v := range set {
			if v.Help == "" {
				continue
			}
			byName[v.Name] = v.Desc
		}
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	if _, err := fmt.Fprintf(w, "# Metrics reference\n\nGenerated by `bridge.WriteMetricsDoc` — do not edit by hand.\nRegenerate with `UPDATE_METRICS_DOC=1 go test ./... -run TestMetricsDocUpToDate`.\n\n| Name | Kind | Unit | Help |\n|---|---|---|---|\n"); err != nil {
		return err
	}
	for _, name := range names {
		d := byName[name]
		if _, err := fmt.Fprintf(w, "| `%s` | %s | %s | %s |\n", d.Name, d.Kind, d.Unit, d.Help); err != nil {
			return err
		}
	}
	return nil
}
