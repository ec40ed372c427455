package moe

import (
	"fmt"
	"time"

	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/tensor"
)

// A2AAlgo selects the all-to-all algorithm used for MoE dispatch and
// combine; it is mpi.Algo, re-exported so model configs can name it.
type A2AAlgo = mpi.Algo

// The algorithms, aliased from mpi (see mpi.Algo for each schedule).
const (
	Auto         = mpi.Auto
	Direct       = mpi.Direct
	Pairwise     = mpi.Pairwise
	Hierarchical = mpi.Hierarchical
	Bruck        = mpi.Bruck
)

// CommConfig selects the wire behavior of dispatch and combine.
type CommConfig struct {
	// Codec is the on-the-wire element encoding for payloads that
	// cross supernodes (mpi.FP32Wire or mpi.FP16Wire).
	Codec mpi.Codec
	// Overlap splits every dispatch-direction exchange into two
	// receive legs so local + shadowed expert compute runs while
	// cross-supernode tokens are still in flight.
	Overlap bool
}

// String renders "codec/blocking|overlap" for benchmark labels.
func (c CommConfig) String() string {
	mode := "blocking"
	if c.Overlap {
		mode = "overlap"
	}
	return c.Codec.String() + "/" + mode
}

// DistMoE is the distributed expert-parallel MoE layer: the total
// expert pool is sharded evenly over the ranks of an expert-parallel
// communicator, and tokens travel to their experts (and back) through
// an all-to-all exchange each step. It implements nn.Layer for the
// local token batch. It is the one MoE layer: the single-rank case
// (NewLocalMoE) runs it on a one-rank communicator, where every
// exchange is a self copy.
//
// Dispatch and combine run on the mpi wire layer: one flattened,
// pooled buffer per direction, expert-slot metadata riding inside the
// data messages, an optional FP16 codec on the inter-supernode legs,
// and (with CommCfg.Overlap) a two-phase receive that runs local and
// shadowed experts while remote tokens are in flight.
//
// Gate weights must be identical on every rank of the group (the
// trainer guarantees this by construction seed and by all-reducing
// gate gradients); each rank gates only its own tokens.
type DistMoE struct {
	Cfg          GateConfig
	Gate         *Gate
	Experts      []*nn.FeedForward // the local shard, ordered by global expert id
	LocalExperts int
	Algo         A2AAlgo
	CommCfg      CommConfig

	// SimRate, when positive, charges expert compute to the rank's
	// virtual clock at this many FLOP/s, so comm/compute overlap is
	// measurable in simulated time even on a single-core host.
	SimRate float64

	comm      *mpi.Comm
	name      string
	hidden    int
	perExpert int // parameter count of one expert FFN

	// Expert placement: which rank owns each expert, plus derived
	// lookup tables. Rebuilt by Migrate.
	place       *Placement
	localGlobal []int // local slot -> global expert id
	slotOf      []int // global expert id -> local slot at its owner

	// group runs the whole local expert shard as one batched GEMM
	// call per phase (see nn.ExpertGroup); rebuilt lazily and dropped
	// whenever migration changes the shard.
	group *nn.ExpertGroup

	// Shadowed (locally replicated) hot experts; see shadow.go.
	shadows     map[int]*nn.FeedForward
	shadowList  []int
	shadowGroup *nn.ExpertGroup   // grouped view over the replicas, shadowList order
	shadowRefs  map[int][]sendRef // shadowed expert -> local (token, k) list
	shadowOuts  map[int]*tensor.Tensor
	shadowSt    *nn.GroupState
	shadowOff   []int

	// Time accumulates the per-phase wall-clock breakdown.
	Time Timing

	localSN []bool // comm rank -> in this rank's supernode

	inferStats InferStats // last Infer call; see infer.go

	// Forward caches for backward, over backing storage that nothing
	// outside the layer holds, so it is reused step after step.
	perTok    [][]slot    // per token: its routing slots, subslices of slotBuf
	slotBuf   []slot      // backing storage of perTok
	sendOrder [][]sendRef // per dst rank: which (token, k) produced row i
	recvCount []int       // rows received from each src rank
	local     phase       // self + intra-supernode rows (all rows when blocking)
	remote    phase       // cross-supernode rows; overlap mode only
	// Combine results (y rows per source), kept until Backward needs
	// them for combine-weight gradients. combRemote is nil outside
	// overlap mode.
	combLocal  *mpi.RecvBuf
	combRemote *mpi.RecvBuf

	// Per-call scratch: send counts, dispatch slot metadata per
	// destination, and the flat combine-weight gradients handed to
	// Gate.Backward.
	counts   []int
	sendMeta [][]int
	dwBuf    []float32
	dwPtrs   [][]float32
}

// slot records where a token's copy landed: a row of a dispatch
// chunk, or of a shadowed expert's local batch.
type slot struct {
	expert  int
	pos     int // row within sendOrder[dst], or within shadowRefs[expert]
	weight  float32
	dropped bool
	shadow  bool // handled by a local replica, not the all-to-all
}

// phase is one received dispatch leg's expert work, cached for
// backward: the rows grouped per local expert and the grouped GEMM
// output and state. Expert le's row i is y.Row(off[le]+i).
type phase struct {
	ord [][]rowRef     // per local expert: rows in dispatch order
	off []int          // expert block offsets into y (st.Off)
	y   *tensor.Tensor // nil when the leg carried no rows
	st  *nn.GroupState
}

// Timing accumulates wall-clock seconds per MoE phase across steps;
// the communication/computation breakdown experiment (R9) reads it.
// Dispatch/Combine include both training directions (forward traffic
// and its backward mirror); the *Local/*Remote fields split out the
// blocked receive time of each leg when overlap mode is on.
type Timing struct {
	Gate, Dispatch, Expert, Combine float64

	DispatchLocal, DispatchRemote float64
	CombineLocal, CombineRemote   float64
}

// Reset zeroes the accumulators.
func (t *Timing) Reset() { *t = Timing{} }

// Add returns the fieldwise sum of two breakdowns (aggregating over
// the MoE layers of a model).
func (t Timing) Add(o Timing) Timing {
	t.Gate += o.Gate
	t.Dispatch += o.Dispatch
	t.Expert += o.Expert
	t.Combine += o.Combine
	t.DispatchLocal += o.DispatchLocal
	t.DispatchRemote += o.DispatchRemote
	t.CombineLocal += o.CombineLocal
	t.CombineRemote += o.CombineRemote
	return t
}

// Sub returns the fieldwise difference (the delta between two
// snapshots taken around a step).
func (t Timing) Sub(o Timing) Timing {
	t.Gate -= o.Gate
	t.Dispatch -= o.Dispatch
	t.Expert -= o.Expert
	t.Combine -= o.Combine
	t.DispatchLocal -= o.DispatchLocal
	t.DispatchRemote -= o.DispatchRemote
	t.CombineLocal -= o.CombineLocal
	t.CombineRemote -= o.CombineRemote
	return t
}

type sendRef struct{ token, k int }

type rowRef struct{ src, pos int } // src rank chunk, row position

// NewDistMoE shards cfg.NumExperts experts over comm with the default
// wire configuration (FP32, blocking). NumExperts must be divisible
// by the communicator size.
func NewDistMoE(name string, r *tensor.RNG, cfg GateConfig, hidden int, comm *mpi.Comm, algo A2AAlgo) *DistMoE {
	return NewDistMoEComm(name, r, cfg, hidden, comm, algo, CommConfig{})
}

// NewLocalMoE builds the single-rank MoE layer: the distributed layer
// over a one-rank communicator (mpi.SelfComm), holding all
// cfg.NumExperts experts, each d -> hidden -> d. SimRate stays 0, so
// expert compute is left for the caller to price.
func NewLocalMoE(name string, r *tensor.RNG, cfg GateConfig, hidden int) *DistMoE {
	return NewDistMoE(name, r, cfg, hidden, mpi.SelfComm(), Auto)
}

// NewDistMoEComm is NewDistMoE with an explicit wire configuration.
func NewDistMoEComm(name string, r *tensor.RNG, cfg GateConfig, hidden int, comm *mpi.Comm, algo A2AAlgo, cc CommConfig) *DistMoE {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.NumExperts%comm.Size() != 0 {
		panic(fmt.Sprintf("moe: %d experts not divisible by %d ranks", cfg.NumExperts, comm.Size()))
	}
	le := cfg.NumExperts / comm.Size()
	m := &DistMoE{
		Cfg:          cfg,
		Gate:         NewGate(name+".gate", r, cfg),
		LocalExperts: le,
		Algo:         algo,
		CommCfg:      cc,
		comm:         comm,
		name:         name,
		hidden:       hidden,
		place:        NewBlockPlacement(cfg.NumExperts, comm.Size()),
	}
	// Every rank draws the full expert-init stream but keeps only its
	// shard, so expert e has identical weights no matter where it
	// lives — the property that makes checkpoints layout-independent.
	for e := 0; e < cfg.NumExperts; e++ {
		ex := nn.NewFeedForward(fmt.Sprintf("%s.expert%d", name, e), r, cfg.Dim, hidden)
		if e == 0 {
			m.perExpert = nn.NumParams(ex.Params())
		}
		if m.place.Owner[e] == comm.Rank() {
			m.Experts = append(m.Experts, ex)
		}
	}
	m.rebuildLookups()
	t := comm.Topology()
	mySN := t.Supernode(comm.Global(comm.Rank()))
	m.localSN = make([]bool, comm.Size())
	for q := 0; q < comm.Size(); q++ {
		m.localSN[q] = t.Supernode(comm.Global(q)) == mySN
	}
	return m
}

// rebuildLookups refreshes the placement-derived tables after
// construction or migration.
func (m *DistMoE) rebuildLookups() {
	m.localGlobal = m.place.ExpertsOf(m.comm.Rank())
	m.slotOf = make([]int, m.Cfg.NumExperts)
	for r := 0; r < m.place.Ranks; r++ {
		for slot, e := range m.place.ExpertsOf(r) {
			m.slotOf[e] = slot
		}
	}
}

// Placement returns the current expert placement.
func (m *DistMoE) Placement() *Placement { return m.place }

// PerExpertParams returns the parameter count of a single expert FFN,
// independent of how many experts this rank currently hosts (a
// drained rank hosts none).
func (m *DistMoE) PerExpertParams() int { return m.perExpert }

// SetCapacityFactor changes the gate capacity factor for subsequent
// forward passes — the degraded-mode knob that tightens per-expert
// capacity so the all-to-all stops waiting on overloaded hosts. All
// ranks gating the same tokens must apply the same factor; changing
// it alters routing and therefore the loss trajectory.
func (m *DistMoE) SetCapacityFactor(f float32) {
	m.Cfg.CapacityFactor = f
	m.Gate.Cfg.CapacityFactor = f
}

// ownerOf returns the rank hosting expert e.
func (m *DistMoE) ownerOf(e int) int { return m.place.Owner[e] }

// WireStats returns the communicator's cumulative flattened-exchange
// byte counters; snapshot around steps for per-phase deltas.
func (m *DistMoE) WireStats() mpi.WireStats { return m.comm.WireStats() }

// PhaseTiming returns the cumulative per-phase breakdown (the Time
// field, behind a method so train.CommReporter can reach it through
// the nn.Layer interface).
func (m *DistMoE) PhaseTiming() Timing { return m.Time }

// Comm returns the expert-parallel communicator. Wire counters are
// per-comm, so aggregators must dedupe layers sharing one comm.
func (m *DistMoE) Comm() *mpi.Comm { return m.comm }

// begin opens an exchange with the configured algorithm and codec and
// posts every chunk of sb, with meta[dst] riding along when meta is
// non-nil. Cross-supernode destinations go first so their (expensive,
// high-latency) messages are injected before the cheap local ones and
// spend the local compute window in flight. Post copies, so sb and
// meta are free once begin returns; the caller chooses how to
// receive. overlap reports whether the two-phase receive path
// applies.
func (m *DistMoE) begin(sb *mpi.SendBuf, meta [][]int) (ex *mpi.Exchange, overlap bool) {
	ex = m.comm.BeginExchange(m.Algo, m.CommCfg.Codec)
	post := func(dst int) {
		var md []int
		if meta != nil {
			md = meta[dst]
		}
		ex.Post(dst, sb.Chunk(dst), md)
	}
	for dst, local := range m.localSN {
		if !local {
			post(dst)
		}
	}
	for dst, local := range m.localSN {
		if local {
			post(dst)
		}
	}
	ex.Flush()
	return ex, m.CommCfg.Overlap && ex.Overlaps()
}

// groupRows assigns each row of a received leg to its target local
// expert using the expert-slot metadata that rode in the messages.
// Counts are exact under dropless routing, so each source's
// variable-length framing is asserted (payload a whole number of
// d-wide rows, one slot id per row) before rows are attributed.
func (m *DistMoE) groupRows(ph *phase, rb *mpi.RecvBuf, d int) {
	ph.ord = emptyLists(ph.ord, m.LocalExperts)
	for _, src := range rb.Srcs() {
		rb.Rows(src, d)
		for pos, le := range rb.Meta(src) {
			if le < 0 || le >= m.LocalExperts {
				panic(fmt.Sprintf("moe: received slot %d out of range (local experts %d)", le, m.LocalExperts))
			}
			ph.ord[le] = append(ph.ord[le], rowRef{src, pos})
		}
	}
}

// emptyLists returns xs resized to n lists, each emptied but keeping
// its capacity.
func emptyLists[T any](xs [][]T, n int) [][]T {
	if cap(xs) < n {
		xs = append(xs[:cap(xs)], make([][]T, n-cap(xs))...)
	}
	xs = xs[:n]
	for i := range xs {
		xs[i] = xs[i][:0]
	}
	return xs
}

// sized returns xs resized to n elements, reusing its storage when it
// is large enough. The contents are unspecified.
func sized[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n)
	}
	return xs[:n]
}

func phaseRows(ord [][]rowRef) int {
	n := 0
	for _, refs := range ord {
		n += len(refs)
	}
	return n
}

// rowCounts returns the reused counts scratch filled with rows[i]*d,
// the SendBuf sizes for a leg that carries rows[i] d-wide rows to
// rank i.
func (m *DistMoE) rowCounts(rows func(i int) int, d int) []int {
	p := m.comm.Size()
	m.counts = sized(m.counts, p)
	for i := range m.counts {
		m.counts[i] = rows(i) * d
	}
	return m.counts
}

// countRecv records in counts how many rows each source of rb sent.
func countRecv(counts []int, rb *mpi.RecvBuf) {
	for _, src := range rb.Srcs() {
		counts[src] = len(rb.Meta(src))
	}
}

// chargeCompute advances the virtual clock by the expert GEMM time at
// SimRate FLOP/s (expertFlops forward, double that backward). No-op
// when SimRate is unset.
func (m *DistMoE) chargeCompute(rows int, backward bool) {
	if m.SimRate <= 0 || rows == 0 {
		return
	}
	f := expertFlops(rows, m.Cfg.Dim, m.hidden)
	if backward {
		f *= 2
	}
	m.comm.Compute(f / m.SimRate)
}

// runExperts applies the local experts to one phase's received rows
// through one grouped FFN call: every expert's rows are packed into a
// flat [rows, d] matrix (expert-major, dispatch order within each
// expert) and the GEMM kernel dispatch sees the phase's total FLOPs.
// Leaves ph.y and ph.st nil when the phase received nothing.
func (m *DistMoE) runExperts(ph *phase, rb *mpi.RecvBuf, d int) {
	ph.y, ph.st = nil, nil
	total := phaseRows(ph.ord)
	if total == 0 || m.LocalExperts == 0 {
		return
	}
	ph.off = sized(ph.off, m.LocalExperts+1)
	in := tensor.Scratch(total, d)
	row := 0
	for le, refs := range ph.ord {
		ph.off[le] = row
		for _, ref := range refs {
			copy(in.Row(row), rb.Chunk(ref.src)[ref.pos*d:(ref.pos+1)*d])
			row++
		}
	}
	ph.off[m.LocalExperts] = row
	if m.group == nil {
		m.group = nn.NewExpertGroup(m.Experts)
	}
	ph.y, ph.st = m.group.Forward(in, ph.off)
}

// fillCombine copies a phase's expert outputs into the combine send
// buffer at each row's dispatch position.
func fillCombine(csb *mpi.SendBuf, ph *phase, d int) {
	for le, refs := range ph.ord {
		for i, ref := range refs {
			copy(csb.Chunk(ref.src)[ref.pos*d:(ref.pos+1)*d], ph.y.Row(ph.off[le]+i))
		}
	}
}

// backExperts runs one phase's grouped expert backward: the received
// output gradients are packed in the forward order (expert-major),
// and the input gradients scatter into rsb at their dispatch
// positions.
func (m *DistMoE) backExperts(ph *phase, rb *mpi.RecvBuf, rsb *mpi.SendBuf, d int) {
	if ph.st == nil {
		return
	}
	dy := tensor.Scratch(ph.st.Rows(), d)
	row := 0
	for _, refs := range ph.ord {
		for _, ref := range refs {
			copy(dy.Row(row), rb.Chunk(ref.src)[ref.pos*d:(ref.pos+1)*d])
			row++
		}
	}
	dx := m.group.Backward(dy, ph.st)
	row = 0
	for _, refs := range ph.ord {
		for _, ref := range refs {
			copy(rsb.Chunk(ref.src)[ref.pos*d:(ref.pos+1)*d], dx.Row(row))
			row++
		}
	}
}

// dropCaches invalidates every forward cache, including the grouped
// GEMM view over the expert shard (it caches weight tensor slices);
// migration and resharding call it.
func (m *DistMoE) dropCaches() {
	m.group = nil
	m.perTok, m.slotBuf = nil, nil
	m.sendOrder = nil
	m.recvCount = nil
	m.local, m.remote = phase{}, phase{}
	m.releaseCombine()
}

// releaseCombine frees the previous step's combine buffers (normally
// consumed by Backward; forward-only callers drop them here).
func (m *DistMoE) releaseCombine() {
	if m.combLocal != nil {
		m.combLocal.Release()
		m.combLocal = nil
	}
	if m.combRemote != nil {
		m.combRemote.Release()
		m.combRemote = nil
	}
}

// combRow returns the expert output row returned by rank src at
// position pos of the combine exchange.
func (m *DistMoE) combRow(src, pos, d int) []float32 {
	rb := m.combLocal
	if m.combRemote != nil && !m.localSN[src] {
		rb = m.combRemote
	}
	return rb.Chunk(src)[pos*d : (pos+1)*d]
}

// route fills the per-token slots and the per-destination send order
// (shadowed experts stay local) from the gate's assignments, over the
// layer's reused storage.
func (m *DistMoE) route(assign [][]Assignment) {
	tokens := len(assign)
	m.sendOrder = emptyLists(m.sendOrder, m.comm.Size())
	if len(m.shadowList) > 0 {
		if m.shadowRefs == nil {
			m.shadowRefs = make(map[int][]sendRef)
		}
		for e, refs := range m.shadowRefs {
			m.shadowRefs[e] = refs[:0]
		}
	}
	total := 0
	for _, as := range assign {
		total += len(as)
	}
	m.slotBuf = sized(m.slotBuf, total)
	m.perTok = sized(m.perTok, tokens)
	off := 0
	for t, as := range assign {
		m.perTok[t] = m.slotBuf[off : off+len(as) : off+len(as)]
		off += len(as)
		for i, a := range as {
			s := slot{expert: a.Expert, weight: a.Weight, dropped: a.Dropped}
			if !a.Dropped {
				if m.isShadowed(a.Expert) {
					s.shadow = true
					s.pos = len(m.shadowRefs[a.Expert])
					m.shadowRefs[a.Expert] = append(m.shadowRefs[a.Expert], sendRef{t, i})
				} else {
					dst := m.ownerOf(a.Expert)
					s.pos = len(m.sendOrder[dst])
					m.sendOrder[dst] = append(m.sendOrder[dst], sendRef{t, i})
				}
			}
			m.perTok[t][i] = s
		}
	}
}

// Forward gates local tokens, dispatches them to expert owners,
// applies the experts, and combines the returned outputs. With
// overlap on, the dispatch is two-phase: local-supernode tokens are
// absorbed and computed (along with shadowed experts) while the
// cross-supernode leg is still in flight.
func (m *DistMoE) Forward(x *tensor.Tensor) *tensor.Tensor {
	tokens, d := x.Shape[0], x.Shape[1]
	p := m.comm.Size()
	m.releaseCombine()
	if len(m.shadowList) > 0 {
		m.refreshShadows()
	}
	t0 := time.Now()
	routing := m.Gate.Forward(x)
	m.Time.Gate += time.Since(t0).Seconds()
	m.route(routing.Assign)

	// Stage the flattened dispatch buffer: one pooled payload, counts
	// header per destination, expert-slot ids riding as metadata.
	sb := mpi.NewSendBuf(m.rowCounts(func(dst int) int { return len(m.sendOrder[dst]) }, d))
	m.sendMeta = emptyLists(m.sendMeta, p)
	for dst := 0; dst < p; dst++ {
		for _, ref := range m.sendOrder[dst] {
			sb.Append(dst, x.Row(ref.token))
			m.sendMeta[dst] = append(m.sendMeta[dst], m.slotOf[m.perTok[ref.token][ref.k].expert])
		}
	}

	t0 = time.Now()
	var dispLocal, dispRemote *mpi.RecvBuf
	ex, overlap := m.begin(sb, m.sendMeta)
	tl := time.Now()
	if overlap {
		dispLocal = ex.RecvLocal()
	} else {
		dispLocal = ex.RecvAll()
	}
	m.Time.DispatchLocal += time.Since(tl).Seconds()
	sb.Release()
	m.Time.Dispatch += time.Since(t0).Seconds()

	// Phase 1: experts on self + intra-supernode tokens (all tokens
	// when blocking).
	m.groupRows(&m.local, dispLocal, d)
	t0 = time.Now()
	m.runExperts(&m.local, dispLocal, d)
	m.chargeCompute(phaseRows(m.local.ord), false)

	// Shadowed experts: local replicas on local tokens, also inside
	// the in-flight window (no all-to-all involvement at all). The
	// replicas run as their own grouped FFN call, in shadowList order.
	m.shadowSt = nil
	if n := len(m.shadowList); n > 0 {
		m.shadowOuts = make(map[int]*tensor.Tensor, n)
		soff := make([]int, n+1)
		srows := 0
		for i, e := range m.shadowList {
			soff[i] = srows
			srows += len(m.shadowRefs[e])
		}
		soff[n] = srows
		m.shadowOff = soff
		if srows > 0 {
			in := tensor.Scratch(srows, d)
			row := 0
			for _, e := range m.shadowList {
				for _, ref := range m.shadowRefs[e] {
					copy(in.Row(row), x.Row(ref.token))
					row++
				}
			}
			y, st := m.shadowGroup.Forward(in, soff)
			m.shadowSt = st
			for i, e := range m.shadowList {
				if soff[i+1] > soff[i] {
					m.shadowOuts[e] = y.RowsView(soff[i], soff[i+1])
				}
			}
		}
	}
	m.Time.Expert += time.Since(t0).Seconds()

	// Phase 2: absorb the cross-supernode leg and run its tokens (an
	// empty phase when blocking).
	m.remote.ord, m.remote.y, m.remote.st = m.remote.ord[:0], nil, nil
	if overlap {
		t0 = time.Now()
		dispRemote = ex.RecvRemote()
		dt := time.Since(t0).Seconds()
		m.Time.DispatchRemote += dt
		m.Time.Dispatch += dt
		m.groupRows(&m.remote, dispRemote, d)
		t0 = time.Now()
		m.runExperts(&m.remote, dispRemote, d)
		m.chargeCompute(phaseRows(m.remote.ord), false)
		m.Time.Expert += time.Since(t0).Seconds()
	}

	// Rows received per source, for combine sizing and backward.
	m.recvCount = sized(m.recvCount, p)
	clear(m.recvCount)
	countRecv(m.recvCount, dispLocal)
	if dispRemote != nil {
		countRecv(m.recvCount, dispRemote)
	}

	// Combine: expert outputs return to token owners, positionally
	// aligned with each source's dispatch order.
	csb := mpi.NewSendBuf(m.rowCounts(func(src int) int { return m.recvCount[src] }, d))
	fillCombine(csb, &m.local, d)
	fillCombine(csb, &m.remote, d)
	dispLocal.Release()
	if dispRemote != nil {
		dispRemote.Release()
	}

	t0 = time.Now()
	ex2, _ := m.begin(csb, nil)
	if overlap {
		tl := time.Now()
		m.combLocal = ex2.RecvLocal()
		m.Time.CombineLocal += time.Since(tl).Seconds()
		tl = time.Now()
		m.combRemote = ex2.RecvRemote()
		m.Time.CombineRemote += time.Since(tl).Seconds()
	} else {
		m.combLocal = ex2.RecvAll()
	}
	csb.Release()
	m.Time.Combine += time.Since(t0).Seconds()

	out := tensor.Scratch(tokens, d)
	for dst := 0; dst < p; dst++ {
		for i, ref := range m.sendOrder[dst] {
			s := m.perTok[ref.token][ref.k]
			y := m.combRow(dst, i, d)
			row := out.Row(ref.token)
			for j := range row {
				row[j] += s.weight * y[j]
			}
		}
	}
	for _, e := range m.shadowList {
		for i, ref := range m.shadowRefs[e] {
			s := m.perTok[ref.token][ref.k]
			y := m.shadowOuts[e].Row(i)
			row := out.Row(ref.token)
			for j := range row {
				row[j] += s.weight * y[j]
			}
		}
	}
	return out
}

// Backward runs the reverse dispatch: output gradients travel to the
// expert owners (two-phase under overlap, mirroring the forward
// dispatch — expert backward for local-phase rows runs while
// cross-supernode gradients are in flight), expert backward produces
// input gradients, and those return to the token owners. Gate
// gradients stay local.
func (m *DistMoE) Backward(dout *tensor.Tensor) *tensor.Tensor {
	tokens, d := dout.Shape[0], dout.Shape[1]
	p := m.comm.Size()

	// Combine-weight gradients for the gate (flat reused storage,
	// consumed synchronously by Gate.Backward), and ŵ-scaled output
	// gradients for the experts, staged flat per destination.
	m.dwPtrs = sized(m.dwPtrs, tokens)
	m.dwBuf = sized(m.dwBuf, len(m.slotBuf))
	clear(m.dwBuf)
	dWeights := m.dwPtrs
	off := 0
	for t := range dWeights {
		n := len(m.perTok[t])
		dWeights[t] = m.dwBuf[off : off+n : off+n]
		off += n
	}
	dsb := mpi.NewSendBuf(m.rowCounts(func(dst int) int { return len(m.sendOrder[dst]) }, d))
	for dst := 0; dst < p; dst++ {
		chunk := dsb.Chunk(dst)
		for i, ref := range m.sendOrder[dst] {
			s := m.perTok[ref.token][ref.k]
			y := m.combRow(dst, i, d)
			g := dout.Row(ref.token)
			var dw float64
			dyRow := chunk[i*d : (i+1)*d]
			for j := range g {
				dw += float64(g[j]) * float64(y[j])
				dyRow[j] = s.weight * g[j]
			}
			dWeights[ref.token][ref.k] = float32(dw)
		}
	}
	// Shadow assignments: combine-weight grads from the cached local
	// outputs, staged into one flat dy for the grouped replica
	// backward (same row order as the shadow forward).
	var shadowDy *tensor.Tensor
	if m.shadowSt != nil {
		shadowDy = tensor.Scratch(m.shadowSt.Rows(), d)
		for i, e := range m.shadowList {
			base := m.shadowOff[i]
			for j, ref := range m.shadowRefs[e] {
				s := m.perTok[ref.token][ref.k]
				y := m.shadowOuts[e].Row(j)
				g := dout.Row(ref.token)
				var dw float64
				dyRow := shadowDy.Row(base + j)
				for c := range g {
					dw += float64(g[c]) * float64(y[c])
					dyRow[c] = s.weight * g[c]
				}
				dWeights[ref.token][ref.k] = float32(dw)
			}
		}
	}

	// Reverse dispatch of output gradients (the combine's backward).
	t0 := time.Now()
	var dyLocal, dyRemote *mpi.RecvBuf
	ex, overlap := m.begin(dsb, nil)
	tl := time.Now()
	if overlap {
		dyLocal = ex.RecvLocal()
	} else {
		dyLocal = ex.RecvAll()
	}
	m.Time.CombineLocal += time.Since(tl).Seconds()
	dsb.Release()
	m.Time.Combine += time.Since(t0).Seconds()

	// Expert backward per phase; input grads are scattered into the
	// flat return buffer at their dispatch positions.
	rsb := mpi.NewSendBuf(m.rowCounts(func(src int) int { return m.recvCount[src] }, d))
	t0 = time.Now()
	m.backExperts(&m.local, dyLocal, rsb, d)
	m.chargeCompute(phaseRows(m.local.ord), true)
	m.Time.Expert += time.Since(t0).Seconds()
	if overlap {
		t0 = time.Now()
		dyRemote = ex.RecvRemote()
		dt := time.Since(t0).Seconds()
		m.Time.CombineRemote += dt
		m.Time.Combine += dt
		t0 = time.Now()
		m.backExperts(&m.remote, dyRemote, rsb, d)
		m.chargeCompute(phaseRows(m.remote.ord), true)
		m.Time.Expert += time.Since(t0).Seconds()
	}
	dyLocal.Release()
	if dyRemote != nil {
		dyRemote.Release()
	}

	// Return input gradients to token owners (the dispatch's
	// backward); the next layer needs every row, so this leg blocks.
	t0 = time.Now()
	exRet, _ := m.begin(rsb, nil)
	ret := exRet.RecvAll()
	rsb.Release()
	m.Time.Dispatch += time.Since(t0).Seconds()

	dx := tensor.Scratch(tokens, d)
	for dst := 0; dst < p; dst++ {
		for i, ref := range m.sendOrder[dst] {
			src := ret.Chunk(dst)[i*d : (i+1)*d]
			row := dx.Row(ref.token)
			for j := range row {
				row[j] += src[j]
			}
		}
	}
	ret.Release()

	// Shadow replicas: grouped local backward, then gradients reduced
	// to the expert's owner.
	if shadowDy != nil {
		dxe := m.shadowGroup.Backward(shadowDy, m.shadowSt)
		for i, e := range m.shadowList {
			base := m.shadowOff[i]
			for j, ref := range m.shadowRefs[e] {
				row := dx.Row(ref.token)
				src := dxe.Row(base + j)
				for c := range row {
					row[c] += src[c]
				}
			}
		}
	}
	if len(m.shadowList) > 0 {
		m.reduceShadowGrads()
	}

	tensor.AddInPlace(dx, m.Gate.Backward(dWeights))
	m.releaseCombine()
	return dx
}

// Params returns the gate and the *local* expert shard. Gate
// parameters are replicated (all-reduce their grads); expert
// parameters are sharded (no all-reduce across the expert-parallel
// group).
func (m *DistMoE) Params() []*nn.Param {
	ps := m.Gate.Params()
	for _, e := range m.Experts {
		ps = append(ps, e.Params()...)
	}
	return ps
}

// ReplicatedParams returns the parameters that are replicated across
// the expert-parallel group (the gate projection).
func (m *DistMoE) ReplicatedParams() []*nn.Param { return m.Gate.Params() }

// ShardedParams returns the parameters owned exclusively by this rank
// (its experts).
func (m *DistMoE) ShardedParams() []*nn.Param {
	var ps []*nn.Param
	for _, e := range m.Experts {
		ps = append(ps, e.Params()...)
	}
	return ps
}

// SetGradScale forwards the gradient scale to the gate (see
// Gate.SetGradScale).
func (m *DistMoE) SetGradScale(s float32) { m.Gate.SetGradScale(s) }

// AuxLoss returns the gate's load-balance loss for the last batch.
func (m *DistMoE) AuxLoss() float32 {
	if m.Gate.routing == nil {
		return 0
	}
	return m.Gate.routing.AuxLoss
}

// LastRouting exposes the last routing decisions.
func (m *DistMoE) LastRouting() *Routing { return m.Gate.routing }
