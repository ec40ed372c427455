package main

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"

	"bagualu/internal/mpi"
	"bagualu/internal/simnet"
)

// gate is a host-side barrier for the rank goroutines of one world.
// Unlike an mpi barrier it costs no virtual time, so it can bracket
// the measured region without changing any sim-clock result. The
// leader runs fn once every rank has arrived, then releases them.
type gate struct {
	arrived sync.WaitGroup
	release chan struct{}
}

func newGate(ranks int) *gate {
	g := &gate{release: make(chan struct{})}
	g.arrived.Add(ranks)
	return g
}

func (g *gate) pass(leader bool, fn func()) {
	g.arrived.Done()
	if leader {
		g.arrived.Wait()
		fn()
		close(g.release)
	}
	<-g.release
}

// allocCounter brackets a region with runtime.MemStats reads.
type allocCounter struct{ mallocs, bytes uint64 }

func readAllocs() allocCounter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocCounter{ms.Mallocs, ms.TotalAlloc}
}

func (a allocCounter) since(b allocCounter) allocCounter {
	return allocCounter{a.mallocs - b.mallocs, a.bytes - b.bytes}
}

// heapSampler tracks the largest live-object heap seen at its samples.
type heapSampler struct {
	s    []metrics.Sample
	peak uint64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

func (h *heapSampler) sample() {
	metrics.Read(h.s)
	if v := h.s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// cpuProfile accumulates the layer split of profiled regions.
type cpuProfile struct {
	buf   bytes.Buffer
	split profileSplit
	err   error
}

func (p *cpuProfile) start() {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil && p.err == nil {
		p.err = err
	}
}

func (p *cpuProfile) stop() {
	pprof.StopCPUProfile()
	s, err := splitProfile(p.buf.Bytes())
	if err != nil {
		if p.err == nil {
			p.err = err
		}
		return
	}
	p.split.add(s)
}

// putFloat feeds a float64's bits to a digest.
func putFloat(h io.Writer, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

// trafficMetrics fills the per-step mpi readouts from the world's
// traffic and the MoE exchange's wire counters over steps steps.
func trafficMetrics(m map[string]float64, traffic simnet.Traffic, wire mpi.WireStats, steps float64) {
	m["mpi.bytes_per_step.node"] = float64(traffic.Bytes[simnet.NodeLevel]) / steps
	m["mpi.bytes_per_step.sn"] = float64(traffic.Bytes[simnet.SupernodeLevel]) / steps
	m["mpi.bytes_per_step.machine"] = float64(traffic.Bytes[simnet.MachineLevel]) / steps
	var msgs int64
	for _, n := range traffic.Msgs[simnet.NodeLevel:] {
		msgs += n
	}
	m["mpi.msgs_per_step"] = float64(msgs) / steps
	if raw := wire.Raw[simnet.MachineLevel]; raw > 0 {
		m["mpi.wire_codec_ratio"] = float64(wire.Wire[simnet.MachineLevel]) / float64(raw)
	}
}
