package moe

import (
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/tensor"
)

// Inference dispatch path. Serving routes top-k like training but
// drops everything training-only: no gate noise, no capacity limit
// (no token is ever dropped at inference), no auxiliary losses, no
// backward caches, no shadow replicas. It still rides the two-phase
// flattened Exchange — FP16 codec on inter-supernode legs, local
// experts overlapped with the remote receive — because that wire
// layer is exactly what an MoE serving engine needs per decode step;
// on a one-rank communicator the exchange is a self copy.
//
// Numerics are batch-invariant end to end: the gate projection uses
// the naive kernel, softmax and top-k are per-row, expert FFNs run
// through nn's inference forwards, and each token's combine
// accumulates its k expert outputs in a per-token order that does not
// depend on which other tokens share the step. A single decoded token
// therefore produces bitwise the same output as the same token inside
// any prefill batch.

// InferStats describes the expert work of the last Infer call on the
// local rank, for the serving engine's cost model.
type InferStats struct {
	// Rows is the number of token-assignment rows the local experts
	// processed (post-dispatch on the distributed layer).
	Rows int
	// ActiveExperts is how many local experts saw at least one row —
	// the number of expert weight sets the step had to touch.
	ActiveExperts int
	// Flops is the expert forward cost of those rows (2 GEMMs per
	// row: d->hidden, hidden->d).
	Flops float64
	// Charged reports whether Flops was already priced onto the
	// rank's virtual clock: the layer does this itself when SimRate is
	// set. NewLocalMoE leaves SimRate at 0, so single-rank callers
	// price the expert compute themselves.
	Charged bool
}

func expertFlops(rows, dim, hidden int) float64 {
	return 4 * float64(rows) * float64(dim) * float64(hidden)
}

// InferRoute is the inference gate. It runs the same routing core as
// the training gate (routeRow) in its dropless configuration: top-k
// with normalized combine weights, no noise, no capacity, no
// auxiliary losses — training and serving can no longer disagree on
// what routing means. Assignments are in decreasing-probability order
// per token. ExpertChoice configs fall back to token-choice here:
// expert selection depends on which other tokens share the batch,
// which would break the serving engine's batch-invariance guarantee
// (decode == prefill bitwise).
func (g *Gate) InferRoute(x *tensor.Tensor) [][]Assignment {
	cfg := g.Cfg
	if cfg.RandomRouting {
		panic("moe: InferRoute does not support RandomRouting (training-only ablation)")
	}
	tokens := x.Shape[0]
	probs := tensor.SoftmaxRows(nn.InferLinear(g.Proj, x))
	assign := make([][]Assignment, tokens)
	asBuf := make([]Assignment, tokens*cfg.TopK)
	for t := 0; t < tokens; t++ {
		as := asBuf[t*cfg.TopK : (t+1)*cfg.TopK]
		g.routeRow(probs.Row(t), as, nil, 0)
		assign[t] = as
	}
	return assign
}

// Infer runs the distributed MoE in inference mode: gate locally,
// dispatch token rows to expert owners over the two-phase flattened
// exchange, run local experts (overlapped with the remote leg when
// configured), and combine the returned outputs. Ranks with zero
// tokens must still call Infer — the exchange is collective.
//
// When SimRate is set, expert compute is charged to the virtual clock
// here (at the owner rank, where the FLOPs actually land) and the
// recorded stats have Charged=true.
func (m *DistMoE) Infer(x *tensor.Tensor) *tensor.Tensor {
	tokens, d := x.Shape[0], x.Shape[1]
	p := m.comm.Size()
	assign := m.Gate.InferRoute(x)

	// Route per destination, in token order. No drops, no shadows.
	sendOrder := make([][]sendRef, p)
	for t := 0; t < tokens; t++ {
		for k, a := range assign[t] {
			dst := m.ownerOf(a.Expert)
			sendOrder[dst] = append(sendOrder[dst], sendRef{t, k})
		}
	}

	sb := mpi.NewSendBuf(m.rowCounts(func(dst int) int { return len(sendOrder[dst]) }, d))
	m.sendMeta = emptyLists(m.sendMeta, p)
	for dst := 0; dst < p; dst++ {
		for _, ref := range sendOrder[dst] {
			sb.Append(dst, x.Row(ref.token))
			m.sendMeta[dst] = append(m.sendMeta[dst], m.slotOf[assign[ref.token][ref.k].Expert])
		}
	}

	var dispLocal, dispRemote *mpi.RecvBuf
	ex, overlap := m.begin(sb, m.sendMeta)
	if overlap {
		dispLocal = ex.RecvLocal()
	} else {
		dispLocal = ex.RecvAll()
	}
	sb.Release()

	var local, remote phase
	m.groupRows(&local, dispLocal, d)
	outLocal := m.inferExperts(dispLocal, local.ord, d)
	rows := phaseRows(local.ord)
	m.chargeCompute(rows, false)

	var outRemote []*tensor.Tensor
	if overlap {
		dispRemote = ex.RecvRemote()
		m.groupRows(&remote, dispRemote, d)
		outRemote = m.inferExperts(dispRemote, remote.ord, d)
		r := phaseRows(remote.ord)
		m.chargeCompute(r, false)
		rows += r
	}

	// Rows received per source, for combine sizing.
	recvCount := make([]int, p)
	countRecv(recvCount, dispLocal)
	if dispRemote != nil {
		countRecv(recvCount, dispRemote)
	}

	csb := mpi.NewSendBuf(m.rowCounts(func(src int) int { return recvCount[src] }, d))
	fill := func(ord [][]rowRef, outs []*tensor.Tensor) {
		for le, refs := range ord {
			for i, ref := range refs {
				copy(csb.Chunk(ref.src)[ref.pos*d:(ref.pos+1)*d], outs[le].Row(i))
			}
		}
	}
	fill(local.ord, outLocal)
	if outRemote != nil {
		fill(remote.ord, outRemote)
	}
	dispLocal.Release()
	if dispRemote != nil {
		dispRemote.Release()
	}

	var combLocal, combRemote *mpi.RecvBuf
	ex2, _ := m.begin(csb, nil)
	if overlap {
		combLocal = ex2.RecvLocal()
		combRemote = ex2.RecvRemote()
	} else {
		combLocal = ex2.RecvAll()
	}
	csb.Release()
	row := func(src, pos int) []float32 {
		rb := combLocal
		if combRemote != nil && !m.localSN[src] {
			rb = combRemote
		}
		return rb.Chunk(src)[pos*d : (pos+1)*d]
	}

	// Combine. Iterating dst then position gives each token a
	// per-token accumulation order fixed by its own experts' owners —
	// independent of batch composition, so decode == prefill bitwise.
	out := tensor.New(tokens, d)
	for dst := 0; dst < p; dst++ {
		for i, ref := range sendOrder[dst] {
			a := assign[ref.token][ref.k]
			y := row(dst, i)
			o := out.Row(ref.token)
			for j := range o {
				o[j] += a.Weight * y[j]
			}
		}
	}
	combLocal.Release()
	if combRemote != nil {
		combRemote.Release()
	}

	active := 0
	for le := 0; le < m.LocalExperts; le++ {
		busy := len(local.ord[le]) > 0
		if !busy && remote.ord != nil {
			busy = len(remote.ord[le]) > 0
		}
		if busy {
			active++
		}
	}
	m.inferStats = InferStats{
		Rows:          rows,
		ActiveExperts: active,
		Flops:         expertFlops(rows, m.Cfg.Dim, m.hidden),
		Charged:       m.SimRate > 0,
	}
	return out
}

// inferExperts applies the local experts to one received leg with the
// inference forward (no backward state).
func (m *DistMoE) inferExperts(rb *mpi.RecvBuf, ord [][]rowRef, d int) []*tensor.Tensor {
	outs := make([]*tensor.Tensor, m.LocalExperts)
	for le, refs := range ord {
		if len(refs) == 0 {
			continue
		}
		in := tensor.New(len(refs), d)
		for i, ref := range refs {
			copy(in.Row(i), rb.Chunk(ref.src)[ref.pos*d:(ref.pos+1)*d])
		}
		outs[le] = m.Experts[le].Infer(in)
	}
	return outs
}

// LastInferStats returns the expert-work stats of the last Infer call.
func (m *DistMoE) LastInferStats() InferStats { return m.inferStats }

// NumLocalExperts returns the size of this rank's expert shard.
func (m *DistMoE) NumLocalExperts() int { return m.LocalExperts }
