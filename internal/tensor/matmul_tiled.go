package tensor

import "sync"

// Tiled GEMM kernel modeled on the blocking scheme used for the
// SW26010-Pro CPE mesh: the output is processed in MC×NC macro-tiles
// with a KC-deep panel of B packed contiguously (the analogue of
// staging a tile in CPE local store), and a register micro-kernel
// accumulates each micro-tile. On cache hierarchies this is the same
// optimization the paper's hand-written kernels perform with DMA.

const (
	tileM  = 64  // rows per macro-tile (per-worker unit)
	tileN  = 64  // cols per macro-tile
	tileK  = 128 // reduction panel depth
	microR = 2   // micro-kernel rows: 2x4 keeps all 8 accumulators
	microC = 4   // micro-kernel cols: in amd64's 16 vector registers
)

// panelPool recycles the per-worker packed B panels so repeated GEMMs
// allocate nothing.
var panelPool = sync.Pool{New: func() any {
	s := make([]float32, tileK*tileN)
	return &s
}}

// gUnit is one row macro-tile: rows [i0,i1) of the flat activation
// matrix, all belonging to group g.
type gUnit struct{ g, i0, i1 int }

// unitPool recycles the per-call unit slices so steady-state calls
// allocate nothing.
var unitPool = sync.Pool{New: func() any { return new([]gUnit) }}

// rowTiles splits each group's rows into tileM-row units, appended in
// group order so a worker's contiguous unit range touches each group
// at most once per (j,p) panel. off nil means one group of m rows.
func rowTiles(off []int, m int) *[]gUnit {
	if off == nil {
		off = []int{0, m}
	}
	up := unitPool.Get().(*[]gUnit)
	units := (*up)[:0]
	for g := 0; g+1 < len(off); g++ {
		for i0 := off[g]; i0 < off[g+1]; i0 += tileM {
			units = append(units, gUnit{g, i0, min(i0+tileM, off[g+1])})
		}
	}
	*up = units
	return up
}

// matmulTiledInto is the tiled driver: it accumulates a@op(B) into the
// zeroed out, with op, off, b and bs as in gemm. Each worker owns a
// disjoint range of row macro-tiles and, for every (j,p) block, packs
// the B panel once and reuses it across its row tiles, repacking only
// when its tiles cross into the next group. Row tiles never span a
// group boundary, so every group's output is bitwise identical to a
// standalone call on that block alone. parallel=false runs the whole
// problem on the calling goroutine.
func matmulTiledInto(out, a, b []float32, off []int, bs []*Tensor, m, k, n int, transB, parallel bool) {
	up := rowTiles(off, m)
	units := *up
	body := func(lo, hi int) {
		bp := panelPool.Get().(*[]float32)
		panel := *bp
		for j0 := 0; j0 < n; j0 += tileN {
			j1 := min(j0+tileN, n)
			for p0 := 0; p0 < k; p0 += tileK {
				p1 := min(p0+tileK, k)
				curG := -1
				for _, u := range units[lo:hi] {
					if u.g != curG {
						bg := b
						if bs != nil {
							bg = bs[u.g].Data
						}
						if transB {
							packBT(panel, bg, p0, p1, j0, j1, k)
						} else {
							packB(panel, bg, p0, p1, j0, j1, n)
						}
						curG = u.g
					}
					macroKernel(out, a, panel, u.i0, u.i1, j0, j1, p0, p1, k, n)
				}
			}
		}
		panelPool.Put(bp)
	}
	if parallel {
		ParallelRows(len(units), body)
	} else {
		body(0, len(units))
	}
	unitPool.Put(up)
}

// packB copies B[p0:p1, j0:j1] into a contiguous row-major panel with
// stride (j1-j0), improving locality of the inner loops.
func packB(panel, b []float32, p0, p1, j0, j1, n int) {
	w := j1 - j0
	for p := p0; p < p1; p++ {
		copy(panel[(p-p0)*w:(p-p0)*w+w], b[p*n+j0:p*n+j1])
	}
}

// packBT transposes B[j0:j1, p0:p1] (B stored [n,k]) into the same
// panel layout packB produces, so the macro kernel is shared between
// the normal and the ᵀ variants.
func packBT(panel, b []float32, p0, p1, j0, j1, k int) {
	w := j1 - j0
	kd := p1 - p0
	for jj := 0; jj < w; jj++ {
		row := b[(j0+jj)*k+p0 : (j0+jj)*k+p1]
		off := jj
		for p := 0; p < kd; p++ {
			panel[off] = row[p]
			off += w
		}
	}
}

// macroKernel updates out[i0:i1, j0:j1] += A[i0:i1, p0:p1] @ panel.
func macroKernel(out, a, panel []float32, i0, i1, j0, j1, p0, p1, k, n int) {
	w := j1 - j0
	kd := p1 - p0
	i := i0
	for ; i+microR <= i1; i += microR {
		j := 0
		for ; j+microC <= w; j += microC {
			microKernel2x4(out, a, panel, i, j0+j, j, kd, k, n, w, p0)
		}
		// Column remainder.
		for ; j < w; j++ {
			for di := 0; di < microR; di++ {
				var sum float32
				arow := a[(i+di)*k+p0:]
				for p := 0; p < kd; p++ {
					sum += arow[p] * panel[p*w+j]
				}
				out[(i+di)*n+j0+j] += sum
			}
		}
	}
	// Row remainder.
	for ; i < i1; i++ {
		arow := a[i*k+p0:]
		orow := out[i*n+j0 : i*n+j1]
		for p := 0; p < kd; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			prow := panel[p*w : (p+1)*w]
			for j, pv := range prow {
				orow[j] += av * pv
			}
		}
	}
}

// microKernel2x4 accumulates a 2x4 output block held in registers.
// The 8 accumulators plus loop temporaries fit amd64's 16 vector
// registers (a 4x4 block spills); the three-index subslices pin
// lengths so the compiler drops bounds checks from the inner loop.
func microKernel2x4(out, a, panel []float32, i, jAbs, j, kd, k, n, w, p0 int) {
	var c00, c01, c02, c03 float32
	var c10, c11, c12, c13 float32
	a0 := a[(i+0)*k+p0 : (i+0)*k+p0+kd : (i+0)*k+p0+kd]
	a1 := a[(i+1)*k+p0 : (i+1)*k+p0+kd : (i+1)*k+p0+kd]
	off := j
	for p := 0; p < kd; p++ {
		pr := panel[off : off+4 : off+4]
		b0, b1, b2, b3 := pr[0], pr[1], pr[2], pr[3]
		av0, av1 := a0[p], a1[p]
		c00 += av0 * b0
		c01 += av0 * b1
		c02 += av0 * b2
		c03 += av0 * b3
		c10 += av1 * b0
		c11 += av1 * b1
		c12 += av1 * b2
		c13 += av1 * b3
		off += w
	}
	o0 := out[(i+0)*n+jAbs : (i+0)*n+jAbs+4 : (i+0)*n+jAbs+4]
	o1 := out[(i+1)*n+jAbs : (i+1)*n+jAbs+4 : (i+1)*n+jAbs+4]
	o0[0] += c00
	o0[1] += c01
	o0[2] += c02
	o0[3] += c03
	o1[0] += c10
	o1[1] += c11
	o1[2] += c12
	o1[3] += c13
}
