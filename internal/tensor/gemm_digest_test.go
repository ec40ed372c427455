package tensor

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"
)

// The GEMM entry points promise bit-stable outputs: the MoE layer's
// grouped kernels, ZeRO and pipeline replay gates all compare floats
// with ==. TestGemmGoldenDigests pins every entry point's output bits
// over a grid of shapes against digests stored in testdata, so any
// change to blocking, loop order or dispatch that moves a single bit
// fails here first.

const gemmDigestFile = "testdata/gemm_digests.txt"

// gemmDigestShapes are (m, k, n) triples covering: scalar and k=1
// problems, tails on every tile edge, the exact tiled threshold, one
// row against a wide panel, and multi-panel reductions.
var gemmDigestShapes = [][3]int{
	{1, 1, 1}, {3, 5, 2}, {7, 1, 9}, {17, 33, 9}, {64, 16, 64},
	{63, 65, 67}, {129, 130, 67}, {2, 300, 130}, {100, 70, 130}, {1, 257, 256},
}

// digest is FNV-64a over the float32 bit patterns of xs.
func digest(xs []float32) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, x := range xs {
		u := math.Float32bits(x)
		buf[0], buf[1], buf[2], buf[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// sparsify zeroes every fifth element so the kernels' zero-skip
// branches run.
func sparsify(t *Tensor) *Tensor {
	for i := 0; i < len(t.Data); i += 5 {
		t.Data[i] = 0
	}
	return t
}

// digestGroups splits m rows into four groups: a third, an empty
// group, a single row, and the rest.
func digestGroups(m int) []int {
	g0 := m / 3
	g2 := min(1, m-g0)
	return []int{0, g0, g0, g0 + g2, m}
}

// gemmDigests runs every GEMM entry point over gemmDigestShapes and
// returns one "name digest" line per output.
func gemmDigests() []string {
	var lines []string
	add := func(name string, dims [3]int, xs []float32) {
		lines = append(lines, fmt.Sprintf("%s/%dx%dx%d %016x", name, dims[0], dims[1], dims[2], digest(xs)))
	}
	for si, d := range gemmDigestShapes {
		m, k, n := d[0], d[1], d[2]
		r := NewRNG(uint64(1000 + si))
		a := sparsify(Randn(r, 1, m, k))
		b := Randn(r, 1, k, n)
		bt := Randn(r, 1, n, k)
		at := sparsify(Randn(r, 1, k, m))

		add("MatMul", d, MatMul(a, b).Data)
		add("MatMulNaive", d, MatMulNaive(a, b).Data)
		add("MatMulTransB", d, MatMulTransB(a, bt).Data)
		add("MatMulTransBNaive", d, MatMulTransBNaive(a, bt).Data)
		add("MatMulTransA", d, MatMulTransA(at, b).Data)

		const batches = 3
		ba := sparsify(Randn(r, 1, batches, m, k))
		add("BatchMatMul", d, BatchMatMul(ba, Randn(r, 1, batches, k, n)).Data)
		add("BatchMatMulTransB", d, BatchMatMulTransB(ba, Randn(r, 1, batches, n, k)).Data)

		off := digestGroups(m)
		groups := len(off) - 1
		bs, bts, outs := make([]*Tensor, groups), make([]*Tensor, groups), make([]*Tensor, groups)
		for g := range bs {
			bs[g] = Randn(r, 1, k, n)
			bts[g] = Randn(r, 1, n, k)
			outs[g] = Randn(r, 1, k, n) // accumulated into, not overwritten
		}
		out := Full(7, m, n) // the grouped forward calls must zero it
		GroupedMatMulInto(out, a, off, bs)
		add("GroupedMatMulInto", d, out.Data)
		out = Full(7, m, n)
		GroupedMatMulTransBInto(out, a, off, bts)
		add("GroupedMatMulTransBInto", d, out.Data)
		GroupedMatMulTransAInto(outs, a, Randn(r, 1, m, n), off)
		for g, o := range outs {
			add(fmt.Sprintf("GroupedMatMulTransAInto.g%d", g), d, o.Data)
		}
	}
	return lines
}

func TestGemmGoldenDigests(t *testing.T) {
	got := strings.Join(gemmDigests(), "\n") + "\n"
	want, err := os.ReadFile(gemmDigestFile)
	if err != nil {
		t.Fatalf("read %s: %v\ncomputed digests:\n%s", gemmDigestFile, err, got)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Errorf("digest line %d: got %q, want %q", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("got %d digest lines, want %d", len(gl), len(wl))
	}
}

// TestGemmAllocsPerCall pins each entry point's heap allocations per
// call inside a step arena, in both the tiled and the unblocked
// regime. The counts are the tensor header and closure costs of the
// call (a tiled batched call pays one closure per batch element); the
// kernels themselves allocate nothing in steady state.
func TestGemmAllocsPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items, so pooled buffers re-allocate")
	}
	arena := NewArena()
	prev := SetStepArena(arena)
	defer SetStepArena(prev)
	for regime, d := range [][3]int{{8, 8, 8}, {64, 64, 64}} {
		m, k, n := d[0], d[1], d[2]
		r := NewRNG(1)
		a, b, bt, at := Randn(r, 1, m, k), Randn(r, 1, k, n), Randn(r, 1, n, k), Randn(r, 1, k, m)
		off := []int{0, m / 2, m}
		bs := []*Tensor{Randn(r, 1, k, n), Randn(r, 1, k, n)}
		bts := []*Tensor{Randn(r, 1, n, k), Randn(r, 1, n, k)}
		outs := []*Tensor{New(k, n), New(k, n)}
		ba, bb, bbt := Randn(r, 1, 2, m, k), Randn(r, 1, 2, k, n), Randn(r, 1, 2, n, k)
		out := New(m, n)
		for _, c := range []struct {
			name string
			want [2]float64 // unblocked, tiled
			call func()
		}{
			{"MatMul", [2]float64{2, 2}, func() { MatMul(a, b) }},
			{"MatMulNaive", [2]float64{5, 5}, func() { MatMulNaive(a, b) }},
			{"MatMulTransB", [2]float64{2, 2}, func() { MatMulTransB(a, bt) }},
			{"MatMulTransA", [2]float64{2, 2}, func() { MatMulTransA(at, b) }},
			{"BatchMatMul", [2]float64{2, 4}, func() { BatchMatMul(ba, bb) }},
			{"BatchMatMulTransB", [2]float64{2, 4}, func() { BatchMatMulTransB(ba, bbt) }},
			{"GroupedMatMulInto", [2]float64{1, 1}, func() { GroupedMatMulInto(out, a, off, bs) }},
			{"GroupedMatMulTransBInto", [2]float64{1, 1}, func() { GroupedMatMulTransBInto(out, a, off, bts) }},
			{"GroupedMatMulTransAInto", [2]float64{1, 1}, func() { GroupedMatMulTransAInto(outs, a, out, off) }},
		} {
			got := testing.AllocsPerRun(50, func() { c.call(); arena.Drain() })
			t.Logf("%s/%dx%dx%d: %v allocs/call", c.name, m, k, n, got)
			if got > c.want[regime] {
				t.Errorf("%s/%dx%dx%d: %v allocs/call, want <= %v", c.name, m, k, n, got, c.want[regime])
			}
		}
	}
}
