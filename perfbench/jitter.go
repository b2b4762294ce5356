package main

import (
	"math/rand"
	"time"

	"bridge/internal/msg"
)

// netJitter bounds the seeded extra delay of each message: a few percent
// of the 0.5 ms internode latency the message model charges.
const netJitter = 20 * time.Microsecond

// jitter delays every message by a seeded amount of up to netJitter, as on
// a real interconnect. Without it, a workload whose inputs do not change
// the work (fixed-size blocks, a fixed call sequence) would time every
// call identically on every seed. It is a message-layer fault hook that
// only delays; the virtual scheduler runs one process at a time, so the
// generator needs no lock.
type jitter struct{ rng *rand.Rand }

func newJitter(seed int64) *jitter { return &jitter{rng: rand.New(rand.NewSource(seed))} }

// Deliver implements msg.FaultHook.
func (j *jitter) Deliver(time.Duration, msg.NodeID, msg.Addr, *msg.Message) msg.Fate {
	return msg.Fate{ExtraDelay: time.Duration(j.rng.Int63n(int64(netJitter))) + 1}
}
