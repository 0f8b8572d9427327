package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared: its speed for a given
// single-threaded job drifts by a quarter or more within minutes as
// other tenants come and go, and a whole run can land in a slow or a
// fast stretch. To keep runs of the same program comparable, a timed
// run also times a fixed reference job before and after every timed
// step, and scales the step's time by how the reference ran around it
// against its nominal time. The reference is the benchmark's own code,
// so a change to the repository's program moves the scaled figures in
// full; only the host's speed is divided out. The raw figures stay in
// the detail line.

// Reference job shape: a levelised random gate network of refGates
// gates, about the size of the v2 memory sub-system netlist so that it
// stays in the same caches, settled in three-valued logic one gate at
// a time the way the repository's scalar simulator settles a netlist —
// a switch on the gate type, fan-in read through each gate's own input
// slice, early exit on a controlling value, a lookup of forced outputs
// — refRounds times per call, with a few inputs toggling per round as
// in a clocked design.
const (
	refGates  = 2048
	refInputs = 64
	refWindow = 512 // a gate's inputs come from the previous refWindow nets
	refRounds = 1850
	// refNominal is one reference call's time on the 2-vCPU host the
	// baseline was recorded on, in a quiet stretch. Scaled figures read
	// as seconds at that speed.
	refNominal = 0.125
	// refMaxCPUs caps the CPUs a single-threaded measurement visits.
	refMaxCPUs = 8
	// refSum is the checksum every reference call must return.
	refSum = 0x9ec8f52a3b92d8bb
	// refSeed seeds the network's wiring.
	refSeed = 1
)

// Three-valued logic levels of the reference network.
const (
	r0 uint8 = iota
	r1
	rX
)

// refGate is one gate of the reference network.
type refGate struct {
	typ     uint8 // 0 BUF, 1 NOT, 2 AND, 3 NAND, 4 OR, 5 NOR, 6 XOR, 7 XNOR
	in      []int32
	id, out int32
	block   string // sized like netlist.Gate; not read
}

// refNet is one reference network with its net values; gate g drives
// net refInputs+g.
type refNet struct {
	gates []refGate
	v     []uint8
}

// xorshift advances a xorshift64 state.
func xorshift(s *uint64) uint64 {
	*s ^= *s << 13
	*s ^= *s >> 7
	*s ^= *s << 17
	return *s
}

func newRefNet(seed uint64) *refNet {
	r := &refNet{gates: make([]refGate, refGates), v: make([]uint8, refInputs+refGates)}
	s := seed | 1
	for g := range r.gates {
		net := refInputs + g
		lo := max(0, net-refWindow)
		typ := uint8(xorshift(&s) % 8)
		fanin := 1
		if typ >= 2 {
			fanin = 2 + int(xorshift(&s)%3)
		}
		in := make([]int32, fanin)
		for i := range in {
			in[i] = int32(lo + int(xorshift(&s)%uint64(net-lo)))
		}
		r.gates[g] = refGate{typ: typ, in: in, id: int32(g), out: int32(net), block: "F_MEM/DECODER"}
	}
	return r
}

// refForced are the gate outputs eval holds at a fixed level, keyed
// by gate ID, like the simulator's forced nets during a fault.
var refForced = map[int32]uint8{250: rX, 375: r1}

// eval settles the network refRounds times, toggling two inputs before
// each round, and returns a checksum of the last nets.
func (r *refNet) eval() uint64 {
	var sum uint64
	s := uint64(0x9e3779b97f4a7c15)
	v := r.v
	clear(v)
	for round := 0; round < refRounds; round++ {
		for k := 0; k < 2; k++ {
			x := xorshift(&s)
			v[x%refInputs] = uint8(x>>8) & 1
		}
		for g := range r.gates {
			gate := &r.gates[g]
			if f, ok := refForced[gate.id]; ok {
				v[gate.out] = f
				continue
			}
			v[gate.out] = gate.eval(v)
		}
		for _, x := range v[len(v)-64:] {
			sum = sum*3 + uint64(x)
		}
	}
	return sum
}

func (g *refGate) eval(v []uint8) uint8 {
	inv := func(x uint8) uint8 {
		if x == rX {
			return rX
		}
		return x ^ 1
	}
	switch g.typ {
	case 0:
		return v[g.in[0]]
	case 1:
		return inv(v[g.in[0]])
	case 2, 3:
		acc := r1
		for _, id := range g.in {
			switch x := v[id]; {
			case x == r0:
				acc = r0
			case x == rX:
				acc = rX
			}
			if acc == r0 {
				break
			}
		}
		if g.typ == 3 {
			return inv(acc)
		}
		return acc
	case 4, 5:
		acc := r0
		for _, id := range g.in {
			switch x := v[id]; {
			case x == r1:
				acc = r1
			case x == rX:
				acc = rX
			}
			if acc == r1 {
				break
			}
		}
		if g.typ == 5 {
			return inv(acc)
		}
		return acc
	default:
		acc := r0
		for _, id := range g.in {
			x := v[id]
			if x == rX || acc == rX {
				acc = rX
				continue
			}
			acc ^= x
		}
		if g.typ == 7 {
			return inv(acc)
		}
		return acc
	}
}

// hostRef times reference calls, each on an OS thread pinned to one of
// the CPUs the benchmark may run on (at most refMaxCPUs of them), since
// a shared host's CPUs can run at different speeds. A single-threaded
// front-end moves between them, so its reference makes one call on
// each CPU in turn; a front-end that keeps n threads busy gets n calls
// at once, spread over the CPUs. A measurement is the mean of its
// calls' wall times and of their thread CPU times.
type hostRef struct {
	cpus       []int
	threads    int
	nets       []*refNet // one per concurrent call
	times, cpu []float64
}

func newHostRef(threads int) (*hostRef, error) {
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, err
	}
	h := &hostRef{cpus: cpus[:min(len(cpus), refMaxCPUs)], threads: threads}
	for i := 0; i < threads; i++ {
		h.nets = append(h.nets, newRefNet(refSeed))
	}
	return h, nil
}

// refCall is one pinned reference call's cost and checksum.
type refCall struct {
	wall, cpu time.Duration
	sum       uint64
	err       error
}

// measure makes one round of reference calls and records their mean
// times; a wrong checksum is an error.
func (h *hostRef) measure() error {
	var calls []refCall
	if h.threads == 1 {
		for _, c := range h.cpus {
			calls = append(calls, pinnedCalls([]*refNet{h.nets[0]}, []int{c})...)
		}
	} else {
		cpus := make([]int, len(h.nets))
		for i := range cpus {
			cpus[i] = h.cpus[i%len(h.cpus)]
		}
		calls = pinnedCalls(h.nets, cpus)
	}
	var wall, cpu time.Duration
	for i, c := range calls {
		switch {
		case c.err != nil:
			return c.err
		case c.sum != refSum:
			return fmt.Errorf("internal: host reference call %d checksum %#x, want %#x", i, c.sum, uint64(refSum))
		}
		wall += c.wall
		cpu += c.cpu
	}
	h.times = append(h.times, wall.Seconds()/float64(len(calls)))
	h.cpu = append(h.cpu, cpu.Seconds()/float64(len(calls)))
	return nil
}

// pinnedCalls evaluates nets[i] on a fresh OS thread pinned to cpus[i],
// all at once. Each goroutine exits with its thread still locked, so
// the runtime discards the pinned thread instead of reusing it.
func pinnedCalls(nets []*refNet, cpus []int) []refCall {
	out := make([]refCall, len(nets))
	var wg sync.WaitGroup
	for i, n := range nets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			if err := pinThread(cpus[i]); err != nil {
				out[i].err = err
				return
			}
			cpu0, err := threadCPU()
			if err != nil {
				out[i].err = err
				return
			}
			start := time.Now()
			out[i].sum = n.eval()
			out[i].wall = time.Since(start)
			cpu1, err := threadCPU()
			out[i].cpu, out[i].err = cpu1-cpu0, err
		}()
	}
	wg.Wait()
	return out
}

// at is the host's slowdown around the operation timed between
// reference measurements i and i+1: their mean wall time over the
// nominal time. cpuAt is the same for CPU time, which does not count
// the time the host gives to other tenants.
func (h *hostRef) at(i int) float64    { return (h.times[i] + h.times[i+1]) / 2 / refNominal }
func (h *hostRef) cpuAt(i int) float64 { return (h.cpu[i] + h.cpu[i+1]) / 2 / refNominal }

// cpuMask is a Linux CPU affinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", e)
	}
	var cpus []int
	for c := 0; c < 64*len(m); c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	if len(cpus) == 0 {
		return nil, fmt.Errorf("sched_getaffinity: no CPUs")
	}
	return cpus, nil
}

// pinThread pins the calling OS thread to CPU c.
func pinThread(c int) error {
	var m cpuMask
	m[c/64] = 1 << (c % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return fmt.Errorf("sched_setaffinity cpu %d: %w", c, e)
	}
	return nil
}

// threadCPU is the user+system time the calling OS thread has used.
func threadCPU() (time.Duration, error) {
	const rusageThread = 1 // RUSAGE_THREAD
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}
