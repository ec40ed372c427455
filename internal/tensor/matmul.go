package tensor

import "fmt"

// Matrix-multiply kernels. These are the hot loops of the whole
// reproduction, the analogue of the paper's CPE-blocked GEMM: the
// output is split into goroutine-parallel row panels, the way the
// paper spreads a GEMM across the 64 compute cores of a core group.
//
// Every a@b and a@bᵀ entry point — plain (MatMul, MatMulTransB),
// batched (BatchMatMul, BatchMatMulTransB) and grouped
// (GroupedMatMulInto, GroupedMatMulTransBInto) — runs through gemm and
// from there through exactly two kernels: the packed tiled driver in
// matmul_tiled.go for problems with at least gemmTiledMin
// multiply-adds, and the unblocked matmulInto loop below it, whose
// zero setup cost wins at small sizes. A plain call is the one-group
// case of a grouped call, and a batched call runs one serial plain
// call per batch element. aᵀ@b (the weight-gradient layout) streams
// through its own loop: MatMulTransA here, GroupedMatMulTransAInto in
// matmul_grouped.go.

// gemmTiledMin is the m*k*n product above which the tiled kernel is
// dispatched. Measured on amd64, the packed kernel already wins at
// 64x64x64 (~2^18 multiply-adds); below ~2^16 the packing cost
// outweighs the register-blocking gain and the naive kernel's zero
// setup cost wins.
const gemmTiledMin = 1 << 16

// useTiled reports whether the tiled kernel should handle an
// m-by-k-by-n GEMM. Grouped calls decide on the group total.
func useTiled(m, k, n int) bool {
	return m*k*n >= gemmTiledMin
}

// MatMul returns a@b for a [m,k] and b [k,n]. Large problems are
// routed to the tiled kernel, small ones to the unblocked loop.
func MatMul(a, b *Tensor) *Tensor {
	m, k, n := mmDims("MatMul", a, b)
	out := Scratch(m, n)
	gemm(out.Data, a.Data, b.Data, nil, nil, m, k, n, false, useTiled(m, k, n), true)
	return out
}

// MatMulNaive returns a@b using the unblocked kernel regardless of
// shape. It is the batch-invariant kernel of KV decode and the
// benchmark baseline the tiled kernel is measured against.
func MatMulNaive(a, b *Tensor) *Tensor {
	m, k, n := mmDims("MatMulNaive", a, b)
	out := New(m, n)
	gemm(out.Data, a.Data, b.Data, nil, nil, m, k, n, false, false, true)
	return out
}

// MatMulTransB returns a@bᵀ for a [m,k] and b [n,k]. This is the
// layout of the backward pass w.r.t. inputs when weights are stored
// [out,in]. Dispatches like MatMul.
func MatMulTransB(a, b *Tensor) *Tensor {
	m, k, n := mmTransBDims(a, b)
	out := Scratch(m, n)
	gemm(out.Data, a.Data, b.Data, nil, nil, m, k, n, true, useTiled(m, k, n), true)
	return out
}

// MatMulTransBNaive is a@bᵀ on the unblocked kernel regardless of
// shape; the benchmark baseline for the tiled variant.
func MatMulTransBNaive(a, b *Tensor) *Tensor {
	m, k, n := mmTransBDims(a, b)
	out := Scratch(m, n)
	gemm(out.Data, a.Data, b.Data, nil, nil, m, k, n, true, false, true)
	return out
}

// MatMulTransA returns aᵀ@b for a [k,m] and b [k,n]; the layout of
// the backward pass w.r.t. weights.
func MatMulTransA(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMulTransA shapes %v, %v", a.Shape, b.Shape))
	}
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := Scratch(m, n)
	// Parallelize over output rows (columns of a); each worker owns a
	// disjoint slice of out so no synchronization is needed.
	ParallelRows(m, func(s, e int) {
		for p := 0; p < k; p++ {
			arow := a.Data[p*m : (p+1)*m]
			brow := b.Data[p*n : (p+1)*n]
			for i := s; i < e; i++ {
				av := arow[i]
				if av == 0 {
					continue
				}
				orow := out.Data[i*n : (i+1)*n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	})
	return out
}

// BatchMatMul multiplies two rank-3 tensors batch-wise: a [B,m,k] @
// b [B,k,n] -> [B,m,n]. Used by multi-head attention.
func BatchMatMul(a, b *Tensor) *Tensor {
	if len(a.Shape) != 3 || len(b.Shape) != 3 || a.Shape[0] != b.Shape[0] || a.Shape[2] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: BatchMatMul shapes %v, %v", a.Shape, b.Shape))
	}
	return batchGemm(a, b, b.Shape[2], false)
}

// BatchMatMulTransB multiplies a [B,m,k] @ bᵀ [B,n,k] -> [B,m,n];
// the Q@Kᵀ pattern in attention.
func BatchMatMulTransB(a, b *Tensor) *Tensor {
	if len(a.Shape) != 3 || len(b.Shape) != 3 || a.Shape[0] != b.Shape[0] || a.Shape[2] != b.Shape[2] {
		panic(fmt.Sprintf("tensor: BatchMatMulTransB shapes %v, %v", a.Shape, b.Shape))
	}
	return batchGemm(a, b, b.Shape[1], true)
}

// batchGemm runs one plain GEMM per batch element, the batch elements
// spread over the workers and each element's GEMM serial inside its
// worker. The kernel is chosen on the per-element shape.
func batchGemm(a, b *Tensor, n int, transB bool) *Tensor {
	bs, m, k := a.Shape[0], a.Shape[1], a.Shape[2]
	out := Scratch(bs, m, n)
	o := out.Data
	tiled := useTiled(m, k, n)
	ParallelRows(bs, func(s, e int) {
		for bi := s; bi < e; bi++ {
			gemm(o[bi*m*n:(bi+1)*m*n], a.Data[bi*m*k:(bi+1)*m*k], b.Data[bi*k*n:(bi+1)*k*n],
				nil, nil, m, k, n, transB, tiled, false)
		}
	})
	return out
}

func mmDims(op string, a, b *Tensor) (m, k, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: %s requires rank-2 tensors, got %v, %v", op, a.Shape, b.Shape))
	}
	if a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch %v, %v", op, a.Shape, b.Shape))
	}
	return a.Shape[0], a.Shape[1], b.Shape[1]
}

func mmTransBDims(a, b *Tensor) (m, k, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransB shapes %v, %v", a.Shape, b.Shape))
	}
	return a.Shape[0], a.Shape[1], b.Shape[0]
}

// gemm computes out = a@op(B) for a [m,k] and out [m,n], with out
// zeroed by the caller. op(B) is B ([k,n]) or, when transB, Bᵀ (B
// stored [n,k]). With off nil, B is b; otherwise rows off[g]..off[g+1]
// of a multiply bs[g] and b is unused. tiled selects the tiled driver
// over the unblocked kernel; parallel spreads the rows over the
// workers (batched calls run each element serially).
func gemm(out, a, b []float32, off []int, bs []*Tensor, m, k, n int, transB, tiled, parallel bool) {
	switch {
	case tiled:
		matmulTiledInto(out, a, b, off, bs, m, k, n, transB, parallel)
	case parallel:
		ParallelRows(m, func(s, e int) { gemmRows(out, a, b, off, bs, k, n, transB, s, e) })
	default:
		gemmRows(out, a, b, off, bs, k, n, transB, 0, m)
	}
}

// gemmRows runs rows [s,e) of a gemm call on the unblocked kernel,
// one matmulInto call per output row.
func gemmRows(out, a, b []float32, off []int, bs []*Tensor, k, n int, transB bool, s, e int) {
	g := 0
	if off != nil {
		g = groupOf(off, s)
	}
	for i := s; i < e; i++ {
		if off != nil {
			for i >= off[g+1] {
				g++
			}
			b = bs[g].Data
		}
		matmulInto(out[i*n:(i+1)*n], a[i*k:(i+1)*k], b, transB)
	}
}

// matmulInto is the unblocked kernel for one output row: orow =
// arow @ op(b), with orow zeroed by the caller. a@b
// streams b rows through the cache, skipping zero activations; a@bᵀ
// takes one dot product of contiguous rows per output element. The
// a@b update is unrolled by four: each element keeps its p-ascending
// sum, and the loop's speed no longer swings with where the linker
// places its code.
func matmulInto(orow, arow, b []float32, transB bool) {
	k, n := len(arow), len(orow)
	if transB {
		for j := range orow {
			brow := b[j*k : (j+1)*k]
			var sum float32
			for p := 0; p < k; p++ {
				sum += arow[p] * brow[p]
			}
			orow[j] = sum
		}
		return
	}
	for p, av := range arow {
		if av == 0 {
			continue
		}
		brow := b[p*n : (p+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			o, v := orow[j:j+4:j+4], brow[j:j+4:j+4]
			o[0] += av * v[0]
			o[1] += av * v[1]
			o[2] += av * v[2]
			o[3] += av * v[3]
		}
		for ; j < n; j++ {
			orow[j] += av * brow[j]
		}
	}
}
