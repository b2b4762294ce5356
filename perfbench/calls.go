package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"bridge"
)

// class groups facade calls for the latency and throughput metrics.
type class int

const (
	classRead  class = iota // user blocks read
	classWrite              // user blocks written
	classMeta               // directory calls: create, open, stat, rename, delete
	classOther              // flushes, health polls, node failures: attempted, not timed by class
	numClasses
)

var classNames = [numClasses]string{"read", "write", "meta", "other"}

type interval struct{ start, end time.Duration }

// classStats accumulates one class's calls. Latencies and intervals are
// simulated time; host is the host wall time spent inside the calls.
type classStats struct {
	n      int
	lat    []time.Duration
	ivals  []interval
	blocks int64
	bytes  int64
	host   time.Duration
}

// calls records every facade call a workload makes in its measured phase.
// Simulated processes run one at a time under the virtual scheduler, so
// concurrent clients may share one recorder.
type calls struct {
	now       func() time.Duration
	cls       [numClasses]classStats
	attempted int
	failed    int
	firstErr  error
	// ops counts user blocks read or written plus directory calls: the
	// denominator of every per-op metric.
	ops int64
	// wrong counts outputs that differ from the shadow copy. A wrong
	// output fails the run; it is not an error.
	wrong      int
	firstWrong string
}

func newCalls(now func() time.Duration) *calls { return &calls{now: now} }

type callStart struct {
	sim  time.Duration
	host time.Time
}

func (c *calls) start() callStart { return callStart{sim: c.now(), host: time.Now()} }

// end records a call of class k that moved blocks user blocks carrying
// bytes payload bytes.
func (c *calls) end(t callStart, k class, blocks, bytes int, err error) {
	host := time.Since(t.host)
	c.add(k, t.sim, c.now(), host, blocks, bytes)
	c.attempted++
	c.count(k, blocks, err)
}

// endTool records one tool call that read blocksIn and wrote blocksOut
// user blocks: it counts once as attempted, and its interval joins both
// the read and the write class.
func (c *calls) endTool(t callStart, blocksIn, blocksOut int, err error) {
	host := time.Since(t.host)
	v1 := c.now()
	c.add(classRead, t.sim, v1, host, blocksIn, blocksIn*bridge.PayloadBytes)
	c.add(classWrite, t.sim, v1, host, blocksOut, blocksOut*bridge.PayloadBytes)
	c.attempted++
	c.count(classRead, blocksIn+blocksOut, err)
}

func (c *calls) add(k class, v0, v1, host time.Duration, blocks, bytes int) {
	s := &c.cls[k]
	s.n++
	s.lat = append(s.lat, v1-v0)
	s.ivals = append(s.ivals, interval{v0, v1})
	s.blocks += int64(blocks)
	s.bytes += int64(bytes)
	s.host += host
}

func (c *calls) count(k class, blocks int, err error) {
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
		return
	}
	switch k {
	case classRead, classWrite:
		c.ops += int64(blocks)
	case classMeta:
		c.ops++
	}
}

// mismatch records a wrong output.
func (c *calls) mismatch(format string, args ...any) {
	c.wrong++
	if c.firstWrong == "" {
		c.firstWrong = fmt.Sprintf(format, args...)
	}
}

// simMetrics returns the simulated-clock end-to-end metrics of the calls
// made in one or more rounds, pooled, with a note on the percentile and
// sample count behind each latency. Each round runs its own cluster and
// clock, so busy time is summed round by round.
func simMetrics(rounds []*calls) (map[string]float64, map[string]string) {
	m := map[string]float64{}
	notes := map[string]string{}
	for _, k := range []class{classRead, classWrite, classMeta} {
		var lat []time.Duration
		var busy float64
		var bytes int64
		for _, c := range rounds {
			s := &c.cls[k]
			lat = append(lat, s.lat...)
			busy += busySeconds(s.ivals)
			bytes += s.bytes
		}
		name := classNames[k]
		if k == classMeta {
			m["sim_meta_ops_s"] = ratio(float64(len(lat)), busy)
			notes["sim_meta_ops_s"] = fmt.Sprintf("%d calls over %.3f simulated s busy", len(lat), busy)
		} else {
			key := "sim_" + name + "_mb_s"
			m[key] = ratio(float64(bytes)/1e6, busy)
			notes[key] = fmt.Sprintf("%d bytes over %.3f simulated s busy", bytes, busy)
		}
		p50 := percentile(lat, 0.5)
		hi, label := highPercentile(lat)
		m["sim_"+name+"_p50_ms"] = ms(p50)
		m["sim_"+name+"_p99_ms"] = ms(hi)
		notes["sim_"+name+"_p50_ms"] = fmt.Sprintf("p50 of n=%d", len(lat))
		notes["sim_"+name+"_p99_ms"] = fmt.Sprintf("%s of n=%d", label, len(lat))
	}
	return m, notes
}

// hostUSPerCall returns the mean host microseconds per call of class k.
func (c *calls) hostUSPerCall(k class) float64 {
	s := &c.cls[k]
	return ratio(float64(s.host.Microseconds()), float64(s.n))
}

// forget drops the per-call samples and keeps the counts and sums, once
// the samples are no longer needed.
func (c *calls) forget() {
	for k := range c.cls {
		c.cls[k].lat, c.cls[k].ivals = nil, nil
	}
}

// busySeconds is the simulated time during which at least one call of the
// class was in flight: the union of the call intervals.
func busySeconds(iv []interval) float64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total time.Duration
	cur := s[0]
	for _, x := range s[1:] {
		if x.start > cur.end {
			total += cur.end - cur.start
			cur = x
			continue
		}
		if x.end > cur.end {
			cur.end = x.end
		}
	}
	total += cur.end - cur.start
	return total.Seconds()
}

// percentile returns the nearest-rank q-quantile of d, 0 for no samples.
func percentile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// highPercentile returns p99 when at least 1000 samples support it, and
// otherwise the highest percentile with ten samples beyond it. Below 21
// samples that percentile is not above the median, so it returns the
// maximum instead.
func highPercentile(d []time.Duration) (time.Duration, string) {
	n := len(d)
	switch {
	case n == 0:
		return 0, "none"
	case n >= 1000:
		return percentile(d, 0.99), "p99"
	case n <= 20:
		return percentile(d, 1), "max"
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[n-11], fmt.Sprintf("p%.1f", 100*float64(n-10)/float64(n))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
