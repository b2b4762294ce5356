package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanLifecycle(t *testing.T) {
	r := NewRecorder(Config{})
	tr := r.NewTrace()
	if tr == 0 {
		t.Fatal("NewTrace returned 0")
	}
	sp := r.Start(10*time.Millisecond, tr, 0, "client.read", 0)
	if r.OpenSpans() != 1 {
		t.Fatalf("OpenSpans = %d, want 1", r.OpenSpans())
	}
	child := r.Start(12*time.Millisecond, tr, sp.ID(), "server.read", 0)
	child.SetQueueWait(1 * time.Millisecond)
	child.Annotate("retry 1")
	child.End(15*time.Millisecond, nil)
	sp.End(20*time.Millisecond, errors.New("boom"))
	if r.OpenSpans() != 0 {
		t.Fatalf("OpenSpans = %d, want 0", r.OpenSpans())
	}

	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Kind != "client.read" || spans[0].Err != "boom" {
		t.Errorf("root span = %+v", spans[0])
	}
	if spans[1].Parent != sp.ID() || spans[1].QueueWait != time.Millisecond {
		t.Errorf("child span = %+v", spans[1])
	}
	if len(spans[1].Annotations) != 1 || spans[1].Annotations[0] != "retry 1" {
		t.Errorf("annotations = %v", spans[1].Annotations)
	}

	// Ending again is counted, not recorded.
	sp.End(25*time.Millisecond, nil)
	if r.DoubleEnds() != 1 {
		t.Errorf("DoubleEnds = %d, want 1", r.DoubleEnds())
	}
}

func TestSpanCapDropsPayloadNotLifecycle(t *testing.T) {
	r := NewRecorder(Config{SpanCap: 2})
	var refs []SpanRef
	for i := 0; i < 5; i++ {
		refs = append(refs, r.Start(time.Duration(i), 1, 0, "client.read", 0))
	}
	if r.OpenSpans() != 5 {
		t.Fatalf("OpenSpans = %d, want 5", r.OpenSpans())
	}
	for _, ref := range refs {
		ref.End(10, nil)
	}
	if r.OpenSpans() != 0 {
		t.Fatalf("OpenSpans = %d, want 0", r.OpenSpans())
	}
	if r.DroppedSpans() != 3 {
		t.Errorf("DroppedSpans = %d, want 3", r.DroppedSpans())
	}
	if got := len(r.Spans()); got != 2 {
		t.Errorf("retained %d spans, want 2", got)
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.NewTrace() != 0 {
		t.Error("nil NewTrace != 0")
	}
	sp := r.Start(0, 1, 0, "x", 0)
	sp.Annotate("a")
	sp.SetQueueWait(1)
	sp.End(1, nil)
	r.Event(0, 1, "k", "d")
	r.Sample(0, 1, "g", 2)
	if r.OpenSpans() != 0 || r.DoubleEnds() != 0 || len(r.Spans()) != 0 {
		t.Error("nil recorder recorded something")
	}
	if err := r.WriteChromeTrace(&bytes.Buffer{}); !errors.Is(err, ErrNoRecorder) {
		t.Errorf("WriteChromeTrace err = %v", err)
	}
	if err := r.WriteTop(&bytes.Buffer{}); !errors.Is(err, ErrNoRecorder) {
		t.Errorf("WriteTop err = %v", err)
	}
}

func TestHistBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 0},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 1},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 9}, // 1000µs ∈ [512µs, 1024µs)
		{time.Hour, numBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	for i := 1; i < numBuckets; i++ {
		if bucketOf(bucketLo(i)) != i {
			t.Errorf("bucketLo(%d) lands in bucket %d", i, bucketOf(bucketLo(i)))
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	r := NewRecorder(Config{})
	for i := 0; i < 99; i++ {
		sp := r.Start(0, 1, 0, "disk.read", 1)
		sp.End(time.Millisecond, nil) // bucket 9: [512µs, 1024µs)
	}
	sp := r.Start(0, 1, 0, "disk.read", 1)
	sp.End(100*time.Millisecond, nil)
	hs := r.Histograms()
	if len(hs) != 1 {
		t.Fatalf("got %d histograms", len(hs))
	}
	h := hs[0]
	if h.Kind != "disk.read" || h.Count != 100 {
		t.Fatalf("snapshot = %+v", h)
	}
	if h.Max != 100*time.Millisecond {
		t.Errorf("Max = %v", h.Max)
	}
	// p50/p95 fall in the 1ms bucket: upper bound 1024µs.
	if h.P50 != 1024*time.Microsecond || h.P95 != 1024*time.Microsecond {
		t.Errorf("P50 = %v, P95 = %v", h.P50, h.P95)
	}
	// p99 is the 99th observation — still 1ms; the 100th is the outlier.
	if h.P99 != 1024*time.Microsecond {
		t.Errorf("P99 = %v", h.P99)
	}
	if h.Mean() <= time.Millisecond {
		t.Errorf("Mean = %v", h.Mean())
	}
}

func TestRegistryTypedHandles(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("bridge.retries", "ops", "retries sent")
	c.Add(3)
	if c.Value() != 3 || r.Get("bridge.retries") != 3 {
		t.Errorf("counter = %d / %d", c.Value(), r.Get("bridge.retries"))
	}
	tm := r.Timer("disk.busy", "time the disk spent on accesses")
	tm.Add(2 * time.Second)
	if tm.Value() != 2*time.Second || r.GetTime("disk.busy") != 2*time.Second {
		t.Errorf("timer = %v", tm.Value())
	}
	g := r.Gauge("queue", "msgs", "queue depth")
	g.Set(4)
	g.Set(2)
	st := g.Stats()
	if st.Last != 2 || st.Max != 4 || st.Samples != 2 || st.Sum != 6 || st.Avg() != 3 {
		t.Errorf("gauge stats = %+v", st)
	}

	// Reset zeroes values but keeps registrations: old handles stay live.
	r.Reset()
	if c.Value() != 0 || tm.Value() != 0 || g.Stats().Samples != 0 {
		t.Error("Reset did not zero values")
	}
	c.Add(1)
	if r.Get("bridge.retries") != 1 {
		t.Error("handle dead after Reset")
	}

	// A second registration of a name shares its value and takes the
	// newer description.
	r.Counter("late.typed", "", "").Add(5)
	lt := r.Counter("late.typed", "ops", "help text")
	if lt.Value() != 5 {
		t.Errorf("re-registered counter = %d", lt.Value())
	}
	vals := r.Values()
	found := false
	for _, v := range vals {
		if v.Name == "late.typed" {
			found = true
			if v.Help != "help text" || v.Kind != KindCounter {
				t.Errorf("re-registered desc = %+v", v.Desc)
			}
		}
	}
	if !found {
		t.Error("late.typed missing from Values")
	}

	// Conflicting typed re-registration panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic on kind conflict")
			}
		}()
		r.Timer("bridge.retries", "now a timer")
	}()
}

func TestValuesSortedAndNilRegistry(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"z", "a", "m"} {
		r.Counter(name, "", "").Add(1)
	}
	vals := r.Values()
	for i := 1; i < len(vals); i++ {
		if vals[i-1].Name >= vals[i].Name {
			t.Fatalf("Values not sorted: %q >= %q", vals[i-1].Name, vals[i].Name)
		}
	}

	var nr *Registry
	nr.Reset()
	nr.Counter("c", "", "").Add(1)
	nr.Timer("t", "").Add(1)
	nr.Gauge("g", "", "").Set(1)
	if nr.Get("c") != 0 || nr.GetTime("t") != 0 || nr.Values() != nil {
		t.Error("nil registry not inert")
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, tm := r.Counter("n", "ops", "h"), r.Timer("d", "h")
			for j := 0; j < 1000; j++ {
				c.Add(1)
				tm.Add(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Get("n"); got != 8000 {
		t.Errorf("concurrent adds = %d, want 8000", got)
	}
	if got := r.GetTime("d"); got != 8000*time.Microsecond {
		t.Errorf("concurrent timer = %v, want 8ms", got)
	}
}

// TestRegistryResetRace hammers handle updates concurrently with Values and
// Reset under the race detector: every snapshot must stay sorted and hold
// each registered metric exactly once.
func TestRegistryResetRace(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, tm := r.Counter("n", "ops", "h"), r.Timer("d", "h")
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Add(1)
				tm.Add(time.Microsecond)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		vals := r.Values()
		for j := 1; j < len(vals); j++ {
			if vals[j-1].Name >= vals[j].Name {
				t.Fatalf("Values not sorted under Reset race: %q after %q", vals[j].Name, vals[j-1].Name)
			}
		}
		r.Reset()
	}
	close(stop)
	wg.Wait()
}

// fillRecorder builds identical content on any recorder — the determinism
// fixture for the exporter tests.
func fillRecorder(r *Recorder) {
	tr := r.NewTrace()
	root := r.Start(time.Millisecond, tr, 0, "client.read", 0)
	srv := r.Start(2*time.Millisecond, tr, root.ID(), "server.read", 0)
	srv.SetQueueWait(300 * time.Microsecond)
	lfs := r.Start(3*time.Millisecond, tr, srv.ID(), "lfs.read", 2)
	dsk := r.Start(4*time.Millisecond, tr, lfs.ID(), "disk.read", 2)
	dsk.End(19*time.Millisecond, nil)
	lfs.End(20*time.Millisecond, nil)
	srv.Annotate("retry 1")
	srv.End(21*time.Millisecond, nil)
	root.End(22*time.Millisecond, errors.New(`timeout "quoted"`))
	r.Event(5*time.Millisecond, tr, "fault.drop", "n1 -> n2")
	r.Sample(10*time.Millisecond, 2, "queue_depth", 3)
	r.Sample(10*time.Millisecond, 2, "disk_util_pct", 75)
}

func TestChromeTraceDeterministicAndValid(t *testing.T) {
	var outs [2]bytes.Buffer
	for i := range outs {
		r := NewRecorder(Config{})
		fillRecorder(r)
		if err := r.WriteChromeTrace(&outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Fatal("two identical recorders produced different Chrome traces")
	}

	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(outs[0].Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var phases = map[string]int{}
	for _, e := range doc.TraceEvents {
		phases[e.Ph]++
	}
	if phases["X"] != 4 || phases["i"] != 1 || phases["C"] != 2 || phases["M"] == 0 {
		t.Errorf("event phases = %v", phases)
	}
	if strings.Contains(outs[0].String(), "\\u") == false {
		// The quoted error must be escaped, not break the JSON.
		if !strings.Contains(outs[0].String(), `timeout \"quoted\"`) {
			t.Error("error text not escaped into JSON")
		}
	}
}

func TestTopReportDeterministic(t *testing.T) {
	var outs [2]bytes.Buffer
	for i := range outs {
		r := NewRecorder(Config{})
		fillRecorder(r)
		if err := r.WriteTop(&outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Fatal("two identical recorders produced different top reports")
	}
	s := outs[0].String()
	for _, want := range []string{"node", "disk-busy", "client.read", "qdepth"} {
		if !strings.Contains(s, want) {
			t.Errorf("top report missing %q:\n%s", want, s)
		}
	}
}
