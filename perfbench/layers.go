package main

import (
	"sort"
	"strings"
	"time"

	"bridge"
	"bridge/internal/obs"
)

// counters is a point-in-time copy of the program's counters: the shared
// registry (bridge.*, msg.*, raft and replica counters) plus the per-node
// disk and EFS registries summed over the storage nodes. Timers are kept
// in nanoseconds.
type counters map[string]float64

var diskCounters = []string{"disk.reads", "disk.writes", "disk.blocks", "disk.ops"}

func readCounters(s *bridge.Session) counters {
	m := counters{}
	for _, v := range s.Metrics().Values {
		if v.Kind == obs.KindTimer {
			m[v.Name] = float64(v.Time)
		} else {
			m[v.Name] = float64(v.Count)
		}
	}
	for _, n := range s.Cluster().Nodes {
		ds := n.Disk.Stats()
		for _, k := range diskCounters {
			m[k] += float64(ds.Get(k))
		}
		m["disk.busy"] += float64(ds.GetTime("disk.busy"))
		if fs := n.FS(); fs != nil {
			m["efs.cache_hits"] += float64(fs.Stats().Get("efs.cache_hits"))
			m["efs.cache_misses"] += float64(fs.Stats().Get("efs.cache_misses"))
		}
	}
	return m
}

// layerSample is what one traced round contributes to the per-layer
// metrics: counter deltas and span sums over its measured phase.
type layerSample struct {
	delta     counters
	self      map[string]time.Duration // per layer: span self time
	queue     map[string]time.Duration // per layer: queue wait before service
	count     map[string]int           // per layer: spans
	meta      []metaCall
	ops       float64
	written   float64 // user blocks written
	metaCalls float64
	diskTime  float64 // storage nodes × measured virtual time, ns
}

// metaCall is one directory call's client span, split by its children.
type metaCall struct {
	latency, server, queue time.Duration
	retries                int
}

func newLayerSample(before, after counters, spans []bridge.OpSpan, v0, v1 time.Duration, c *calls, nodes int) *layerSample {
	l := &layerSample{
		delta:     counters{},
		ops:       float64(c.ops),
		written:   float64(c.cls[classWrite].blocks),
		metaCalls: float64(len(c.cls[classMeta].lat)),
		diskTime:  float64(nodes) * float64(v1-v0),
	}
	for k, v := range after {
		l.delta[k] = v - before[k]
	}
	kids := map[obs.SpanID][]bridge.OpSpan{}
	for _, sp := range spans {
		kids[sp.Parent] = append(kids[sp.Parent], sp)
	}
	l.self, l.queue, l.count = spanSelfTimes(spans, kids, v0, v1)
	l.meta = metaCalls(spans, kids, v0, v1)
	return l
}

// virtualLayers derives the simulated-clock per-layer metrics from the
// traced rounds' samples, pooled.
func virtualLayers(samples []*layerSample) map[string]float64 {
	var ops, written, metaN, diskTime float64
	self, queue := map[string]time.Duration{}, map[string]time.Duration{}
	count := map[string]int{}
	delta := counters{}
	var meta []metaCall
	for _, l := range samples {
		ops += l.ops
		written += l.written
		metaN += l.metaCalls
		diskTime += l.diskTime
		for k, v := range l.delta {
			delta[k] += v
		}
		for k, v := range l.self {
			self[k] += v
		}
		for k, v := range l.queue {
			queue[k] += v
		}
		for k, v := range l.count {
			count[k] += v
		}
		meta = append(meta, l.meta...)
	}
	d := func(name string) float64 { return delta[name] }
	m := map[string]float64{
		"efs.cache_hit_ratio":               ratio(d("efs.cache_hits"), d("efs.cache_hits")+d("efs.cache_misses")),
		"efs.journal_blocks_per_user_block": ratio(d("bridge.journal_blocks"), written),
		"core.ra_hit_ratio":                 ratio(d("bridge.ra_hits"), d("bridge.ra_hits")+d("bridge.ra_misses")),
		"core.wb_blocks_per_flush":          ratio(d("bridge.wb_flushed_blocks"), d("bridge.wb_flushes")),
		"core.client_retries_per_kop":       ratio(1000*d("bridge.client_retries"), ops),
		"raft.commit_wait_ms_per_proposal":  ratio(d("bridge.raft_commit_wait")/1e6, d("bridge.raft_proposals")),
		"raft.entries_per_meta_op":          ratio(d("bridge.raft_entries_committed"), metaN),
		"raft.redirects_per_kop":            ratio(1000*d("bridge.raft_notleader_redirects"), ops),
		"raft.elections":                    ratio(d("bridge.raft_elections"), float64(len(samples))),
		"msg.sent_per_op":                   ratio(d("msg.sent"), ops),
		"msg.bytes_per_op":                  ratio(d("msg.bytes"), ops),
		"msg.remote_frac":                   ratio(d("msg.remote"), d("msg.sent")),
		"disk.busy_frac":                    ratio(d("disk.busy"), diskTime),
		"disk.writes_per_user_block":        ratio(d("disk.writes"), written),
		"replica.reconstructions_per_kop":   ratio(1000*d("bridge.rs_reconstructions"), ops),
		"core.client.self_ms_per_op":        ratio(ms(self["client"]), ops),
		"core.server.self_ms_per_op":        ratio(ms(self["server"]), ops),
		"core.server.queue_wait_ms_per_op":  ratio(ms(queue["server"]), ops),
		"lfs.self_ms_per_op":                ratio(ms(self["lfs"]), ops),
		"lfs.queue_wait_ms_per_op":          ratio(ms(queue["lfs"]), ops),
		"lfs.blocks_per_request":            ratio(d("disk.blocks"), float64(count["lfs"])),
		"disk.self_ms_per_op":               ratio(ms(self["disk"]), ops),
	}
	for k, v := range metaTail(meta) {
		m[k] = v
	}
	return m
}

// spanSelfTimes sums, per layer (the span kind's prefix), the self time of
// the spans that ran inside [v0, v1]: each span's duration minus the part
// of it its child spans cover. It also sums queue waits and counts spans.
func spanSelfTimes(spans []bridge.OpSpan, kids map[obs.SpanID][]bridge.OpSpan, v0, v1 time.Duration) (self, queue map[string]time.Duration, count map[string]int) {
	self, queue, count = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int{}
	for _, sp := range spans {
		if sp.Start < v0 || sp.End > v1 {
			continue
		}
		layer, _, _ := strings.Cut(sp.Kind, ".")
		self[layer] += sp.End - sp.Start - childTime(kids[sp.ID], sp)
		queue[layer] += sp.QueueWait
		count[layer]++
	}
	return self, queue, count
}

// childTime is how much of sp's interval its child spans cover.
func childTime(kids []bridge.OpSpan, sp bridge.OpSpan) time.Duration {
	iv := make([]interval, 0, len(kids))
	for _, k := range kids {
		iv = append(iv, interval{k.Start, k.End})
	}
	return coveredTime(iv, sp.Start, sp.End)
}

// coveredTime is the length of the union of iv clipped to [lo, hi].
func coveredTime(iv []interval, lo, hi time.Duration) time.Duration {
	var clipped []interval
	for _, x := range iv {
		s, e := max(x.start, lo), min(x.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	return time.Duration(busySeconds(clipped) * float64(time.Second))
}

var metaKinds = map[string]bool{
	"client.create": true, "client.open": true, "client.stat": true,
	"client.rename": true, "client.delete": true,
}

// metaCalls splits each directory call's client span inside [v0, v1] into
// server service (the time its child spans cover), server queueing (the
// further time covered once each child's queue wait before service is
// added) and retries (one annotation each). Both are clipped to the client
// span: a retried request may still be queued or served after the call
// has moved on.
func metaCalls(spans []bridge.OpSpan, kids map[obs.SpanID][]bridge.OpSpan, v0, v1 time.Duration) []metaCall {
	var out []metaCall
	for _, sp := range spans {
		if !metaKinds[sp.Kind] || sp.Start < v0 || sp.End > v1 {
			continue
		}
		mc := metaCall{latency: sp.End - sp.Start, retries: len(sp.Annotations), server: childTime(kids[sp.ID], sp)}
		var waits []interval
		for _, k := range kids[sp.ID] {
			waits = append(waits, interval{k.Start - k.QueueWait, k.End})
		}
		mc.queue = coveredTime(waits, sp.Start, sp.End) - mc.server
		out = append(out, mc)
	}
	return out
}

// metaTail explains the slowest one percent of directory calls: how many
// there are, how often each was retried or redirected, and how their
// latency splits into server service, server queueing, and the rest,
// which is network transit and redirect backoff on the client.
func metaTail(meta []metaCall) map[string]float64 {
	out := map[string]float64{}
	for _, k := range metaTailMetrics {
		out[k] = 0
	}
	if len(meta) == 0 {
		return out
	}
	sort.SliceStable(meta, func(i, j int) bool { return meta[i].latency > meta[j].latency })
	tail := meta[:(len(meta)+99)/100]
	var retries int
	var latency, server, queue time.Duration
	for _, mc := range tail {
		retries += mc.retries
		latency += mc.latency
		server += mc.server
		queue += mc.queue
	}
	n := float64(len(tail))
	out["core.meta_tail.calls"] = n
	out["core.meta_tail.latency_ms"] = ms(latency) / n
	out["core.meta_tail.retries_per_call"] = float64(retries) / n
	out["core.meta_tail.server_ms"] = ms(server) / n
	out["core.meta_tail.server_queue_ms"] = ms(queue) / n
	out["core.meta_tail.client_ms"] = ms(latency-server-queue) / n
	return out
}

var metaTailMetrics = []string{
	"core.meta_tail.calls", "core.meta_tail.latency_ms", "core.meta_tail.retries_per_call",
	"core.meta_tail.server_ms", "core.meta_tail.server_queue_ms", "core.meta_tail.client_ms",
}
