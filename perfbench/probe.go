package main

import (
	"container/heap"
	"crypto/hmac"
	"crypto/sha256"
	"runtime"
	"sort"
	"time"
)

// The host this benchmark runs on is shared, and its speed per CPU
// second drifts by a third from minute to minute (README.md, Host
// noise). The probe is a fixed piece of work, shaped like the simulator
// — a heap of closure events, map churn, small allocations and HMACs —
// written with the standard library only, so no change to the system
// under test changes it. Timed next to each rep, it tells how fast the
// host was just then; host times are scaled by probeRef over its time,
// i.e. to the speed of a host that runs the probe in probeRef.

// probeRef is the probe's CPU time on the reference host: a quiet
// 2-vCPU Xeon VM, Go 1.24, linux/amd64.
const probeRef = 40 * time.Millisecond

// probeEvents is how many events one probe runs.
const probeEvents = 60000

type probeEvent struct {
	at int64
	fn func()
}

type probeHeap []*probeEvent

func (h probeHeap) Len() int           { return len(h) }
func (h probeHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h probeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *probeHeap) Push(x any)        { *h = append(*h, x.(*probeEvent)) }
func (h *probeHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// probeSink keeps the probe's results live.
var probeSink int

// probe runs the fixed work once, from a collected heap, and returns
// the CPU time it took.
func probe() time.Duration {
	runtime.GC()
	c0 := cpuTime()
	mac := hmac.New(sha256.New, []byte("perfbench probe"))
	buf := make([]byte, 256)
	h := &probeHeap{}
	m := make(map[int][]byte)
	x, n := int64(1), 0
	var push func(at int64)
	push = func(at int64) {
		heap.Push(h, &probeEvent{at: at, fn: func() {
			n++
			x = x*6364136223846793005 + 1442695040888963407
			m[int(x>>40)&4095] = append([]byte(nil), buf[:64+int(uint64(x)>>58)]...)
			if n%8 == 0 {
				mac.Reset()
				mac.Write(buf)
				probeSink += int(mac.Sum(nil)[0])
			}
			if n < probeEvents {
				push(at + (x>>50)&1023)
			}
		}})
	}
	for i := int64(0); i < 200; i++ {
		push(i)
	}
	for h.Len() > 0 {
		heap.Pop(h).(*probeEvent).fn()
	}
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	probeSink += len(keys)
	return cpuTime() - c0
}
