package main

import (
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// kernelRef is the reference machine speed host times are scaled to:
// about the calibration kernel's median time on one core of a shared
// 2.1 GHz Xeon. A host time reported by this benchmark is the time the
// round would have taken on a host that runs the kernel in kernelRef.
const kernelRef = 10 * time.Millisecond

// kernel is a fixed piece of host work that uses none of the program's
// code: string-keyed map inserts, short-lived pointer-rich allocations
// and their collection, a sort, and goroutine handoffs over an unbuffered
// channel, the runtime paths the simulator spends its time in. A shared
// host's speed drifts by half and more over seconds as other tenants come
// and go; timing the kernel around every round measures that drift, and a
// change to the program leaves the kernel's time alone.
func kernel() time.Duration {
	t0 := time.Now()
	rng := rand.New(rand.NewSource(1))
	type node struct {
		next *node
		buf  []byte
	}
	m := map[string]int{}
	var head *node
	for i := 0; i < 16000; i++ {
		m[strconv.Itoa(rng.Int())] = i
		head = &node{next: head, buf: make([]byte, 64)}
		if i%1000 == 0 {
			head = nil
		}
	}
	v := make([]int, 40000)
	for i := range v {
		v[i] = rng.Int()
	}
	sort.Ints(v)
	ch, done := make(chan int), make(chan struct{})
	go func() {
		for range ch {
		}
		close(done)
	}()
	for i := 0; i < 8000; i++ {
		ch <- i
	}
	close(ch)
	<-done
	runtime.KeepAlive(head)
	return time.Since(t0)
}

// speedScale returns the factor that converts host seconds, at the speed
// at which the kernel took d, to reference seconds.
func speedScale(d time.Duration) float64 { return float64(kernelRef) / float64(d) }
