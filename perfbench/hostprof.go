package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// hostModules are the packages host cost is attributed to, plus runtime
// (garbage collection and scheduling no listed package caused), other
// (every remaining package, the facade and the benchmark's own work) and
// trace: span recording and profiling, which only a traced run pays.
var hostModules = []string{"sim", "msg", "disk", "efs", "lfs", "core", "raft", "tools", "replica", "runtime", "other", "trace"}

// moduleOfFunc maps a symbol to the module that owns it; ok is false for
// the Go runtime and standard library, whose cost belongs to the caller.
func moduleOfFunc(fn string) (string, bool) {
	switch {
	case strings.HasPrefix(fn, "bridge/internal/obs.") || strings.HasPrefix(fn, "runtime/pprof.") ||
		strings.HasPrefix(fn, "bridge.startSampler") || strings.HasPrefix(fn, "main.takeHeapSnapshot"):
		return "trace", true
	case strings.HasPrefix(fn, "bridge/internal/"):
		rest := fn[len("bridge/internal/"):]
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, m := range hostModules[:9] {
			if m == pkg {
				return m, true
			}
		}
		return "other", true
	case strings.HasPrefix(fn, "bridge.") || strings.HasPrefix(fn, "bridge/") || strings.HasPrefix(fn, "main."):
		return "other", true
	}
	return "", false
}

// attribute names the module a stack (leaf first) is charged to: the first
// frame in a program package. A stack with none is runtime work: garbage
// collection goes to runtime, and goroutine scheduling goes to sim, whose
// process handoffs are what park and wake goroutines in this program.
func attribute(frames []string) string {
	for _, f := range frames {
		if m, ok := moduleOfFunc(f); ok {
			return m
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gc") || strings.HasPrefix(f, "runtime.bgsweep") ||
			strings.HasPrefix(f, "runtime.bgscavenge") || strings.HasPrefix(f, "runtime.markroot") {
			return "runtime"
		}
	}
	for _, f := range frames {
		switch f {
		case "runtime.schedule", "runtime.park_m", "runtime.findRunnable", "runtime.goexit0", "runtime.gosched_m":
			return "sim"
		}
	}
	return "runtime"
}

// hostShares accumulates host CPU and allocation by module.
type hostShares struct {
	cpu   map[string]float64 // CPU nanoseconds
	alloc map[string]float64 // bytes allocated
}

func newHostShares() *hostShares {
	return &hostShares{cpu: map[string]float64{}, alloc: map[string]float64{}}
}

// fracs returns <module>.host_cpu_frac and <module>.host_alloc_frac. The
// modules' shares are of the cost the untraced program also pays, so they
// leave tracing out; trace's own share is of the traced run's whole cost.
func (h *hostShares) fracs() map[string]float64 {
	out := map[string]float64{}
	for _, s := range []struct {
		by   map[string]float64
		name string
	}{{h.cpu, "host_cpu_frac"}, {h.alloc, "host_alloc_frac"}} {
		var total float64
		for _, v := range s.by {
			total += v
		}
		base := total - s.by["trace"]
		for _, m := range hostModules {
			out[m+"."+s.name] = ratio(s.by[m], base)
		}
		out["trace."+s.name] = ratio(s.by["trace"], total)
	}
	return out
}

// heapSnapshot is the cumulative allocation profile keyed by stack.
type heapSnapshot map[[32]uintptr]int64

// takeHeapSnapshot runs a collection first, so the profile covers every
// allocation made before the call.
func takeHeapSnapshot() heapSnapshot {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			break
		}
	}
	snap := heapSnapshot{}
	for _, r := range recs[:n] {
		snap[r.Stack0] += r.AllocBytes
	}
	return snap
}

// addHeapDelta charges the bytes allocated between two snapshots.
func (h *hostShares) addHeapDelta(before, after heapSnapshot) {
	names := map[uintptr]string{}
	for stk, b := range after {
		d := b - before[stk]
		if d <= 0 {
			continue
		}
		var frames []string
		for _, pc := range stk {
			if pc == 0 {
				break
			}
			name, ok := names[pc]
			if !ok {
				f, _ := runtime.CallersFrames([]uintptr{pc}).Next()
				name = f.Function
				names[pc] = name
			}
			frames = append(frames, name)
		}
		h.alloc[attribute(frames)] += float64(d)
	}
}

// cpuProfile is one running CPU profile.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *cpuProfile) stop() { pprof.StopCPUProfile() }

// charge decodes the stopped profile and charges its samples.
func (p *cpuProfile) charge(h *hostShares) error {
	samples, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range samples {
		h.cpu[attribute(s.frames)] += float64(s.value)
	}
	return nil
}

type profSample struct {
	frames []string // leaf first
	value  int64    // the last sample value: CPU nanoseconds
}

// decodeProfile reads the samples of a gzipped profile.proto: sample (2)
// {location_id (1), value (2)}, location (4) {id (1), line (4) {function_id
// (1)}}, function (5) {id (1), name (2)} and string_table (6).
func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var samples []rawSample
	locFuncs := map[uint64][]uint64{}
	funcNames := map[uint64]int64{}
	var strs []string
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s rawSample
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var frames []string
		for _, loc := range s.locs {
			// A location's lines run from the innermost inlined function
			// out to its caller.
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i >= 0 && int(i) < len(strs) {
					frames = append(frames, strs[i])
				}
			}
		}
		out = append(out, profSample{frames: frames, value: s.values[len(s.values)-1]})
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field number and
// either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field that arrived either
// unpacked (one value v) or packed (the bytes b).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
