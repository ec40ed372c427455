package tensor

import "fmt"

// Grouped GEMM: one batched call multiplying contiguous row blocks of
// a single activation matrix against per-block weight matrices. This
// is the expert-FFN kernel of the dropless MoE layer — every expert's
// token block on a rank becomes one group. The forward and ᵀ calls
// are the multi-group case of gemm, so the tiled-vs-naive dispatch is
// decided on the *group's* total multiply-adds: a skewed batch (one
// hot expert, many cold one-token experts) runs entirely through the
// tiled driver instead of degrading to the naive loop once per cold
// expert, and each worker's packed B panel is shared across its row
// tiles of one expert rather than paid once per expert per call.
//
// All groups share the inner (k) and output (n) dimensions; only the
// row counts differ. off has len(bs)+1 entries with off[g]..off[g+1]
// delimiting group g's rows; empty groups are allowed.

// groupedDims validates a grouped call and returns the total rows.
func groupedDims(op string, a *Tensor, off []int, groups int) int {
	if len(a.Shape) != 2 {
		panic(fmt.Sprintf("tensor: %s activation must be rank-2, got %v", op, a.Shape))
	}
	if len(off) != groups+1 {
		panic(fmt.Sprintf("tensor: %s offsets len %d, want %d groups+1", op, len(off), groups+1))
	}
	if off[0] != 0 || off[groups] != a.Shape[0] {
		panic(fmt.Sprintf("tensor: %s offsets [%d..%d] do not span %d rows", op, off[0], off[groups], a.Shape[0]))
	}
	for g := 0; g < groups; g++ {
		if off[g+1] < off[g] {
			panic(fmt.Sprintf("tensor: %s offsets not monotone at group %d", op, g))
		}
	}
	return a.Shape[0]
}

// GroupedMatMulInto computes out[off[g]:off[g+1]] = a[off[g]:off[g+1]] @ bs[g]
// for every group g. a is [m,k], each bs[g] is [k,n], out is [m,n]
// (zeroed here). Group g's rows are bitwise identical to
// MatMul-dispatched-at-group-total on that block alone.
func GroupedMatMulInto(out, a *Tensor, off []int, bs []*Tensor) {
	groupedGemm("GroupedMatMulInto", out, a, off, bs, false)
}

// GroupedMatMulTransBInto computes out[rows g] = a[rows g] @ bs[g]ᵀ
// for every group. a is [m,k], each bs[g] is [n,k] (the backward
// dx-layout), out is [m,n] (zeroed here).
func GroupedMatMulTransBInto(out, a *Tensor, off []int, bs []*Tensor) {
	groupedGemm("GroupedMatMulTransBInto", out, a, off, bs, true)
}

// groupedGemm validates a grouped a@bs[g] (a@bs[g]ᵀ when transB) call
// and runs it through gemm.
func groupedGemm(op string, out, a *Tensor, off []int, bs []*Tensor, transB bool) {
	m := groupedDims(op, a, off, len(bs))
	k := a.Shape[1]
	kDim, nDim := 0, 1
	if transB {
		kDim, nDim = 1, 0
	}
	n := 0
	for _, b := range bs {
		if len(b.Shape) != 2 || b.Shape[kDim] != k {
			panic(fmt.Sprintf("tensor: %s weight %v, want inner dimension %d", op, b.Shape, k))
		}
		n = b.Shape[nDim]
	}
	if len(out.Shape) != 2 || out.Shape[0] != m || out.Shape[1] != n {
		panic(fmt.Sprintf("tensor: %s out %v, want [%d %d]", op, out.Shape, m, n))
	}
	out.Zero()
	if m == 0 {
		return
	}
	gemm(out.Data, a.Data, nil, off, bs, m, k, n, transB, useTiled(m, k, n), true)
}

// GroupedMatMulTransAInto accumulates outs[g] += a[rows g]ᵀ @ b[rows g]
// for every group: the grouped weight-gradient kernel. a is [m,din],
// b is [m,n], each outs[g] is [din,n] and is accumulated in place
// (callers pass the parameter-gradient tensors directly). The
// streaming p-ascending accumulation order matches MatMulTransA, so
// when outs[g] starts zeroed the result is bitwise identical to
// AddInPlace(outs[g], MatMulTransA(block_g, dblock_g)).
func GroupedMatMulTransAInto(outs []*Tensor, a, b *Tensor, off []int) {
	m := groupedDims("GroupedMatMulTransAInto", a, off, len(outs))
	if len(b.Shape) != 2 || b.Shape[0] != m {
		panic(fmt.Sprintf("tensor: GroupedMatMulTransAInto b %v, want [%d,_]", b.Shape, m))
	}
	din, n := a.Shape[1], b.Shape[1]
	for _, o := range outs {
		if len(o.Shape) != 2 || o.Shape[0] != din || o.Shape[1] != n {
			panic(fmt.Sprintf("tensor: GroupedMatMulTransAInto out %v, want [%d %d]", o.Shape, din, n))
		}
	}
	if m == 0 {
		return
	}
	// Parallelize over columns of a (rows of every outs[g]); each
	// worker owns a disjoint row range of all outputs, streaming every
	// group's activation rows once.
	ParallelRows(din, func(s, e int) {
		for g := range outs {
			o := outs[g].Data
			for p := off[g]; p < off[g+1]; p++ {
				arow := a.Data[p*din : (p+1)*din]
				brow := b.Data[p*n : (p+1)*n]
				for i := s; i < e; i++ {
					av := arow[i]
					if av == 0 {
						continue
					}
					orow := o[i*n : (i+1)*n]
					for j, bv := range brow {
						orow[j] += av * bv
					}
				}
			}
		}
	})
}

// groupOf returns the group containing flat row i (off is monotone;
// empty groups are skipped forward).
func groupOf(off []int, i int) int {
	g := 0
	for i >= off[g+1] {
		g++
	}
	return g
}
