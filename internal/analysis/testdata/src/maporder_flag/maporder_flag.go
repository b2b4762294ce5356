// Package maporder_flag exercises every maporder finding.
package maporder_flag

import (
	"time"

	"bridge/internal/obs"
	"bridge/internal/sim"
)

func SendInOrder(q sim.Queue, m map[int]string) {
	for _, v := range m { // want `map iteration order reaches sim\.Send`
		q.Send(v)
	}
}

func EscapingAppend(m map[string]int) []string {
	var names []string
	for name := range m { // want `escapes the loop unsorted`
		names = append(names, name)
	}
	return names
}

func ChannelSend(m map[int]int, ch chan int) {
	for _, v := range m { // want `reaches a channel send`
		ch <- v
	}
}

// Closing queues unblocks their receivers in iteration order: observable.
func CloseInOrder(qs map[int]sim.Queue) {
	for _, q := range qs { // want `map iteration order reaches sim\.Close`
		q.Close()
	}
}

// Recorder events land on the timeline in call order: observable.
func EventsInOrder(rec *obs.Recorder, faults map[string]string) {
	for kind, detail := range faults { // want `map iteration order reaches obs\.Event`
		rec.Event(time.Second, 0, kind, detail)
	}
}

// So do annotations on a span.
func AnnotateInOrder(sp obs.SpanRef, notes map[int]string) {
	for _, n := range notes { // want `map iteration order reaches obs\.Annotate`
		sp.Annotate(n)
	}
}
