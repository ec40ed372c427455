package mpi

import (
	"fmt"
	"math/bits"
	"sync"

	"bagualu/internal/half"
	"bagualu/internal/simnet"
	"bagualu/internal/tensor"
)

// The all-to-all stack: flattened all-to-allv over pooled buffers.
//
// Every all-to-all in the package — MoE dispatch and combine, and the
// R4 micro-benchmarks — runs through one framed exchange:
//
//   - SendBuf / RecvBuf hold one contiguous pooled payload (counts
//     header + offsets) instead of P slices, so a MoE dispatch stages
//     and absorbs all tokens with two pool hits total.
//   - Per-destination int metadata (MoE expert-slot ids) rides inside
//     the data messages; no algorithm needs a separate metadata round.
//   - An optional FP16 codec encodes payloads that cross supernodes
//     (simnet.MachineLevel — the expensive links) as raw half bit
//     patterns, halving bytes on exactly the legs that dominate the
//     paper's cost model. Intra-supernode legs stay FP32.
//   - Exchange splits the collective into Post/Flush and
//     RecvLocal/RecvRemote. Direct and Hierarchical send eagerly, so
//     the caller can run local expert compute while cross-supernode
//     traffic is in flight; Pairwise and Bruck stage at Post and run
//     their round schedules inside the first receive.
//
// Ownership protocol: every message payload is staged into a pooled
// buffer by the sender (message.staged); the receiver releases it
// after absorbing the bytes into its flat RecvBuf. Senders therefore
// never retain references to in-flight buffers, and callers may reuse
// their SendBuf the moment Flush returns.

// Codec selects the on-the-wire element encoding for payloads that
// cross supernodes. Intra-supernode and self traffic is always FP32.
type Codec int

const (
	// FP32Wire sends full-width float32 everywhere.
	FP32Wire Codec = iota
	// FP16Wire encodes inter-supernode payloads as raw FP16 bit
	// patterns (2 bytes/element), the paper's mixed-precision wire
	// format. Values round through half precision exactly once.
	FP16Wire
)

// String names the codec.
func (c Codec) String() string {
	switch c {
	case FP32Wire:
		return "fp32"
	case FP16Wire:
		return "fp16"
	default:
		return fmt.Sprintf("Codec(%d)", int(c))
	}
}

// ParseCodec maps a flag string ("fp32" or "fp16") to a Codec.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "fp32":
		return FP32Wire, nil
	case "fp16":
		return FP16Wire, nil
	default:
		return FP32Wire, fmt.Errorf("mpi: unknown wire codec %q (want fp32 or fp16)", s)
	}
}

// Algo selects the schedule an Exchange runs.
type Algo int

const (
	// Auto picks Hierarchical when the communicator spans supernodes
	// and has at least 4 ranks, Direct otherwise.
	Auto Algo = iota
	// Direct sends one eager message per destination.
	Direct
	// Pairwise runs P-1 balanced rounds: in round s rank r sends to
	// r+s and receives from r-s.
	Pairwise
	// Hierarchical aggregates cross-supernode chunks at supernode
	// leaders (the paper's algorithm). It degrades to Direct on a
	// communicator inside one supernode.
	Hierarchical
	// Bruck relays blocks in ⌈log₂P⌉ rounds: the fewest messages
	// (latency-optimal flat baseline) at the cost of each datum
	// crossing up to log₂P hops.
	Bruck
)

// String names the algorithm.
func (a Algo) String() string {
	switch a {
	case Auto:
		return "auto"
	case Direct:
		return "direct"
	case Pairwise:
		return "pairwise"
	case Hierarchical:
		return "hierarchical"
	case Bruck:
		return "bruck"
	default:
		return fmt.Sprintf("Algo(%d)", int(a))
	}
}

// Collective step numbers within one exchange's tag space. Bruck
// numbers its relay rounds from 0 instead.
const (
	stepDirect = 0 // direct chunk (intra-supernode, or any in flat mode)
	stepUp     = 1 // member -> leader aggregation
	stepX      = 2 // leader -> leader cross-supernode
	stepDown   = 3 // leader -> member scatter
)

// Size-classed pool for FP16 staging buffers, mirroring the float32
// classes in package tensor.
const (
	u16MinBits = 6
	u16MaxBits = 28
)

var u16Pools [u16MaxBits + 1]sync.Pool

func u16ClassFor(n int) int {
	if n <= 0 {
		return -1
	}
	c := bits.Len(uint(n - 1))
	if c < u16MinBits {
		c = u16MinBits
	}
	if c > u16MaxBits {
		return -1
	}
	return c
}

func getU16(n int) []uint16 {
	c := u16ClassFor(n)
	if c < 0 {
		return make([]uint16, n)
	}
	if v := u16Pools[c].Get(); v != nil {
		return (*v.(*[]uint16))[:n]
	}
	return make([]uint16, 1<<c)[:n]
}

func putU16(s []uint16) {
	cp := cap(s)
	if c := u16ClassFor(cp); c >= 0 && cp == 1<<c {
		full := s[:cp]
		u16Pools[c].Put(&full)
	}
}

// WireStats counts flattened-exchange traffic staged by one
// communicator, indexed by simnet.Level. Wire is what actually
// crossed the network after codec; Raw is what an all-FP32 wire would
// have carried for the same exchange. The gap at MachineLevel is the
// codec's saving. Unlike World.Stats (global, atomic), WireStats is
// per-comm and owned by the comm's goroutine.
type WireStats struct {
	Wire [4]int64 // bytes after codec
	Raw  [4]int64 // bytes an FP32 wire would have sent
	Msgs [4]int64
}

// Sub returns w minus o, for before/after snapshots around a phase.
func (w WireStats) Sub(o WireStats) WireStats {
	var d WireStats
	for i := range w.Wire {
		d.Wire[i] = w.Wire[i] - o.Wire[i]
		d.Raw[i] = w.Raw[i] - o.Raw[i]
		d.Msgs[i] = w.Msgs[i] - o.Msgs[i]
	}
	return d
}

// Add accumulates o into w.
func (w *WireStats) Add(o WireStats) {
	for i := range w.Wire {
		w.Wire[i] += o.Wire[i]
		w.Raw[i] += o.Raw[i]
		w.Msgs[i] += o.Msgs[i]
	}
}

// TotalWire sums post-codec bytes over all levels.
func (w WireStats) TotalWire() int64 {
	var t int64
	for _, v := range w.Wire {
		t += v
	}
	return t
}

// InterBytes returns post-codec bytes on inter-supernode links.
func (w WireStats) InterBytes() int64 { return w.Wire[simnet.MachineLevel] }

// IntraBytes returns post-codec bytes below the inter-supernode tier
// (node + supernode links; self copies excluded).
func (w WireStats) IntraBytes() int64 {
	return w.Wire[simnet.NodeLevel] + w.Wire[simnet.SupernodeLevel]
}

// WireStats returns a snapshot of this communicator's flattened-
// exchange counters.
func (c *Comm) WireStats() WireStats { return c.wire }

func (c *Comm) accountWire(level simnet.Level, wire, raw int) {
	c.wire.Wire[level] += int64(wire)
	c.wire.Raw[level] += int64(raw)
	c.wire.Msgs[level]++
}

// seg is one absorbed source segment awaiting assembly into a
// RecvBuf: exactly one of f32/u16 is set (or neither for n==0).
type seg struct {
	n    int
	f32  []float32
	u16  []uint16
	meta []int
}

// relList collects staged message buffers to return to their pools
// once a RecvBuf has been assembled from views into them.
type relList struct {
	f32 [][]float32
	u16 [][]uint16
}

func (r *relList) release() {
	for _, s := range r.f32 {
		tensor.PutSlice(s)
	}
	for _, s := range r.u16 {
		putU16(s)
	}
	r.f32, r.u16 = nil, nil
}

// Exchange is an in-flight flattened all-to-allv. The protocol is:
//
//	ex := c.BeginExchange(algo, codec)
//	ex.Post(dst, chunk, meta) for each destination
//	ex.Flush()                                        // nothing unposted remains
//	local := ex.RecvLocal()    // self + intra-supernode sources
//	... compute on local tokens while remote bytes fly ...
//	remote := ex.RecvRemote()  // cross-supernode sources
//
// or RecvAll() for one merged buffer. Direct and Hierarchical send
// eagerly (the simulated network buffers them), so any interleaving
// of compute between Flush and the Recv calls is deadlock-free and
// overlaps flight time; in hierarchical mode cross-supernode chunks
// are batched into one up-leg message to the supernode leader at
// Flush, and leaders run the aggregate exchange inside RecvRemote.
// Pairwise and Bruck stage every chunk at Post and run their round
// schedule inside the first receive call; their RecvLocal/RecvRemote
// split the sources the same way but hide nothing (see Overlaps).
// Every rank of the communicator must run the same sequence.
type Exchange struct {
	c     *Comm
	codec Codec
	algo  Algo // resolved: never Auto
	seq   int64

	posted     []bool
	flushed    bool
	localDone  bool
	remoteDone bool

	// Self chunk, staged at Post so the caller's buffer is free.
	selfData []float32 // pooled
	selfMeta []int

	// Hierarchical mode: cross-supernode chunks buffered for the
	// up-leg, framed as (dst, n, nmeta) triples.
	upHdr  []int
	upData []float32
	upMeta []int

	// Pairwise and Bruck: pend[dst] is dst's chunk framed at Post,
	// sched[src] the segment received from src once the schedule has
	// run, and rel the staging buffers those segments view.
	pend  []message
	sched []seg
	rel   relList

	// Supernode identity; leaders and isLeader only in hierarchical
	// mode.
	isLeader  bool
	myLeader  int
	members   []int
	inSN      []bool
	leaders   []int
	leaderIdx map[int]int
}

// BeginExchange opens a flattened all-to-allv on the communicator
// running algo; Auto resolves by the same topology rule as AllReduce.
// Every rank of the comm must call BeginExchange with the same
// arguments, in the same collective order.
func (c *Comm) BeginExchange(algo Algo, codec Codec) *Exchange {
	switch {
	case algo == Auto && c.prefersHier():
		algo = Hierarchical
	case algo == Auto, algo == Hierarchical && !c.spansSupernodes():
		algo = Direct
	}
	e := &Exchange{
		c:      c,
		codec:  codec,
		algo:   algo,
		seq:    c.nextSeq(),
		posted: make([]bool, c.Size()),
	}
	// "Local" means same-supernode for every algorithm, so RecvLocal/
	// RecvRemote split identically whichever schedule runs.
	g := c.snGroupOf()
	e.members, e.leaderIdx, e.myLeader, e.inSN = g.members, g.leaderIdx, g.myLeader, g.inSN
	switch algo {
	case Hierarchical:
		e.isLeader = c.rank == e.myLeader
		e.leaders = c.leaders(nil)
	case Pairwise, Bruck:
		e.pend = make([]message, c.Size())
	}
	return e
}

// Overlaps reports whether compute run between RecvLocal and
// RecvRemote hides cross-supernode flight time: true for the eager
// Direct and Hierarchical exchanges, false for the round schedules,
// which complete inside the first receive.
func (e *Exchange) Overlaps() bool { return e.pend == nil }

// Post stages the chunk destined to dst and, for Direct (and
// same-supernode Hierarchical) chunks, sends it immediately. The
// caller keeps ownership of data and meta (Post copies). Each
// destination may be posted at most once per exchange.
func (e *Exchange) Post(dst int, data []float32, meta []int) {
	if e.flushed {
		panic("mpi: Exchange.Post after Flush")
	}
	if dst < 0 || dst >= e.c.Size() {
		panic(fmt.Sprintf("mpi: Exchange.Post to invalid rank %d", dst))
	}
	if e.posted[dst] {
		panic(fmt.Sprintf("mpi: Exchange.Post twice to rank %d", dst))
	}
	e.posted[dst] = true

	switch {
	case dst == e.c.rank:
		e.selfData = tensor.GetSlice(len(data))
		copy(e.selfData, data)
		e.selfMeta = append([]int(nil), meta...)
		e.c.accountWire(simnet.SelfLevel, 4*len(data)+8*len(meta), 4*len(data)+8*len(meta))
	case e.pend != nil:
		e.pend[dst] = e.directMsg(dst, data, meta)
	case e.algo == Hierarchical && !e.inSN[dst]:
		e.upHdr = append(e.upHdr, dst, len(data), len(meta))
		e.upData = append(e.upData, data...)
		e.upMeta = append(e.upMeta, meta...)
	default:
		e.send(dst, e.directMsg(dst, data, meta))
	}
}

// PostAll posts every destination chunk of a SendBuf.
func (e *Exchange) PostAll(sb *SendBuf) {
	for d := 0; d < e.c.Size(); d++ {
		e.Post(d, sb.Chunk(d), sb.Meta(d))
	}
}

// coded reports whether payload travelling from comm rank a to comm
// rank b is FP16-encoded: the codec is on and the pair sits in
// different supernodes.
func (e *Exchange) coded(a, b int) bool {
	c := e.c
	return e.codec == FP16Wire && c.Topology().LevelOf(c.group[a], c.group[b]) == simnet.MachineLevel
}

// directMsg frames one chunk as [n, nmeta, meta...] into a staged
// message, encoding to FP16 when the codec applies to the link.
func (e *Exchange) directMsg(dst int, data []float32, meta []int) message {
	ints := make([]int, 2+len(meta))
	ints[0], ints[1] = len(data), len(meta)
	copy(ints[2:], meta)
	m := message{tag: collTag(e.c.id, e.seq, stepDirect), ints: ints, staged: true}
	if e.coded(e.c.rank, dst) {
		u := getU16(len(data))
		half.EncodeSlice(u, data)
		m.u16 = u
	} else {
		s := tensor.GetSlice(len(data))
		copy(s, data)
		m.data = s
	}
	return m
}

// send accounts m in WireStats (Raw prices every element at FP32
// width) and posts it to comm rank dst.
func (e *Exchange) send(dst int, m message) {
	c := e.c
	level := c.Topology().LevelOf(c.group[c.rank], c.group[dst])
	c.accountWire(level, m.nbytes(), m.nbytes()+2*len(m.u16))
	c.proc.post(c.group[dst], m)
}

// Flush completes the send side: destinations never posted get an
// empty chunk, and in hierarchical mode the batched cross-supernode
// up-leg is shipped to the supernode leader (leaders keep theirs for
// direct aggregation). After Flush the exchange's SendBuf may be
// released or reused.
func (e *Exchange) Flush() {
	if e.flushed {
		panic("mpi: Exchange.Flush twice")
	}
	for d := range e.posted {
		if !e.posted[d] {
			e.Post(d, nil, nil)
		}
	}
	e.flushed = true
	if e.algo == Hierarchical && !e.isLeader {
		k := len(e.upHdr) / 3
		ints := make([]int, 1+len(e.upHdr)+len(e.upMeta))
		ints[0] = k
		copy(ints[1:], e.upHdr)
		copy(ints[1+len(e.upHdr):], e.upMeta)
		s := tensor.GetSlice(len(e.upData))
		copy(s, e.upData)
		e.send(e.myLeader, message{tag: collTag(e.c.id, e.seq, stepUp), ints: ints, data: s, staged: true})
	}
}

// absorbDirect parses a [n, nmeta, meta...]-framed message into a seg
// and queues its staging buffer for release.
func absorbDirect(m message, rel *relList) seg {
	if len(m.ints) < 2 {
		panic("mpi: wire framing corrupt: direct header too short")
	}
	n, nmeta := m.ints[0], m.ints[1]
	if nmeta < 0 || len(m.ints) != 2+nmeta {
		panic(fmt.Sprintf("mpi: wire framing corrupt: meta count %d vs header %d", nmeta, len(m.ints)))
	}
	s := seg{n: n, meta: m.ints[2 : 2+nmeta]}
	switch {
	case m.u16 != nil:
		if len(m.u16) != n {
			panic(fmt.Sprintf("mpi: wire framing corrupt: fp16 payload %d vs count %d", len(m.u16), n))
		}
		s.u16 = m.u16
		if m.staged {
			rel.u16 = append(rel.u16, m.u16)
		}
	default:
		if len(m.data) != n {
			panic(fmt.Sprintf("mpi: wire framing corrupt: payload %d vs count %d", len(m.data), n))
		}
		s.f32 = m.data
		if m.staged {
			rel.f32 = append(rel.f32, m.data)
		}
	}
	return s
}

// assemble copies/decodes segs (for the listed sources, ascending)
// into one flat pooled RecvBuf, then releases all staging buffers.
func (e *Exchange) assemble(segs []seg, srcs []int, rel *relList) *RecvBuf {
	p := e.c.Size()
	ints := make([]int, 2*p) // counts and offs in one allocation
	b := &RecvBuf{
		counts: ints[:p:p],
		offs:   ints[p:],
		meta:   make([][]int, p),
		srcs:   srcs,
	}
	total := 0
	for _, s := range srcs {
		b.offs[s] = total
		b.counts[s] = segs[s].n
		total += segs[s].n
	}
	b.data = tensor.GetSlice(total)
	for _, s := range srcs {
		dst := b.data[b.offs[s] : b.offs[s]+segs[s].n]
		switch {
		case segs[s].u16 != nil:
			half.DecodeSlice(dst, segs[s].u16)
		case segs[s].f32 != nil:
			copy(dst, segs[s].f32)
		}
		b.meta[s] = segs[s].meta
	}
	rel.release()
	return b
}

// localSrcs / remoteSrcs partition the comm by this rank's supernode.
func (e *Exchange) localSrcs() []int { return append([]int(nil), e.members...) }

func (e *Exchange) remoteSrcs() []int {
	var srcs []int
	for s := 0; s < e.c.Size(); s++ {
		if !e.inSN[s] {
			srcs = append(srcs, s)
		}
	}
	return srcs
}

// collectLocal blocks for the cheap leg: the self chunk plus every
// same-supernode source (running the whole round schedule first for
// Pairwise and Bruck).
func (e *Exchange) collectLocal(segs []seg, rel *relList) {
	segs[e.c.rank] = seg{n: len(e.selfData), f32: e.selfData, meta: e.selfMeta}
	if e.selfData != nil {
		rel.f32 = append(rel.f32, e.selfData)
		e.selfData = nil
	}
	if e.pend != nil {
		e.runSchedule()
	}
	for _, s := range e.members {
		if s == e.c.rank {
			continue
		}
		if e.pend != nil {
			segs[s] = e.sched[s]
			continue
		}
		m := e.c.recvStep(s, collTag(e.c.id, e.seq, stepDirect))
		segs[s] = absorbDirect(m, rel)
	}
}

// collectRemote blocks for the cross-supernode leg. For Direct that
// is a direct message per remote source; in hierarchical mode the
// leader absorbs member up-legs, runs the leader-to-leader exchange
// (where the FP16 codec applies), and scatters down-legs, while
// non-leaders receive one down-leg from their leader. Pairwise and
// Bruck already hold every segment; the remote leg is always
// collected last, so it takes over their staging buffers.
func (e *Exchange) collectRemote(segs []seg, rel *relList) {
	c := e.c
	switch {
	case e.pend != nil:
		for _, s := range e.remoteSrcs() {
			segs[s] = e.sched[s]
		}
		rel.f32 = append(rel.f32, e.rel.f32...)
		rel.u16 = append(rel.u16, e.rel.u16...)
		e.rel = relList{}
	case e.algo == Direct:
		for _, s := range e.remoteSrcs() {
			m := c.recvStep(s, collTag(c.id, e.seq, stepDirect))
			segs[s] = absorbDirect(m, rel)
		}
	case !e.isLeader:
		m := c.recvStep(e.myLeader, collTag(c.id, e.seq, stepDown))
		parseScatter(m, c.rank, segs, rel)
	default:
		e.leaderExchange(segs, rel)
	}
}

// runSchedule runs the Pairwise or Bruck rounds once, leaving the
// segment from every other rank in e.sched.
func (e *Exchange) runSchedule() {
	if e.sched != nil {
		return
	}
	e.sched = make([]seg, e.c.Size())
	if e.algo == Pairwise {
		e.runPairwise()
	} else {
		e.runBruck()
	}
}

// runPairwise exchanges in P-1 rounds; in round s this rank sends its
// framed chunk to (r+s) mod P and receives from (r-s) mod P.
func (e *Exchange) runPairwise() {
	c := e.c
	p := c.Size()
	tag := collTag(c.id, e.seq, stepDirect)
	for s := 1; s < p; s++ {
		dst, src := (c.rank+s)%p, (c.rank-s+p)%p
		e.send(dst, e.pend[dst])
		e.sched[src] = absorbDirect(c.recvStep(src, tag), &e.rel)
	}
}

// runBruck relays the staged chunks in ⌈log₂P⌉ rounds. blocks[i]
// starts as the chunk bound for rank me+i; the round for bit k ships
// every block whose index has bit k set to rank me+k, framed as
// [nblk, (i, n, nmeta)×nblk, meta...] with FP32 blocks concatenated
// in data and FP16 blocks in u16. A block's encoding is fixed at its
// origin (FP16 iff origin and final destination sit in different
// supernodes), so relays forward the bits untouched and values round
// through half precision at most once. After the last round blocks[i]
// holds what rank me-i sent here.
func (e *Exchange) runBruck() {
	c := e.c
	p, me := c.Size(), c.rank
	blocks := make([]seg, p)
	for i := 1; i < p; i++ {
		blocks[i] = absorbDirect(e.pend[(me+i)%p], &e.rel)
	}
	// coded reports block i's encoding here, once the index bits in
	// moved have carried it from its origin to this rank.
	coded := func(i, moved int) bool {
		o := (me - (i & moved) + p) % p
		return e.coded(o, (o+i)%p)
	}
	for k, step := 1, 0; k < p; k, step = k<<1, step+1 {
		var idx, meta []int
		nf, nh := 0, 0
		for i := k; i < p; i++ {
			if i&k == 0 {
				continue
			}
			idx = append(idx, i)
			meta = append(meta, blocks[i].meta...)
			if coded(i, k-1) {
				nh += blocks[i].n
			} else {
				nf += blocks[i].n
			}
		}
		ints := make([]int, 1, 1+3*len(idx)+len(meta))
		ints[0] = len(idx)
		for _, i := range idx {
			ints = append(ints, i, blocks[i].n, len(blocks[i].meta))
		}
		m := message{tag: collTag(c.id, e.seq, step), ints: append(ints, meta...),
			data: tensor.GetSlice(nf), u16: getU16(nh), staged: true}
		of, oh := 0, 0
		for _, i := range idx {
			if coded(i, k-1) {
				oh += copy(m.u16[oh:], blocks[i].u16)
			} else {
				of += copy(m.data[of:], blocks[i].f32)
			}
		}
		e.send((me+k)%p, m)

		r := c.recvStep((me-k+p)%p, m.tag)
		if len(r.ints) < 1 || r.ints[0] < 0 || len(r.ints) < 1+3*r.ints[0] {
			panic("mpi: wire framing corrupt: bruck relay header")
		}
		nblk := r.ints[0]
		hdr, rmeta := r.ints[1:1+3*nblk], r.ints[1+3*nblk:]
		of, oh, om := 0, 0, 0
		for j := 0; j < nblk; j++ {
			i, n, nm := hdr[3*j], hdr[3*j+1], hdr[3*j+2]
			if i <= 0 || i >= p || n < 0 || nm < 0 || om+nm > len(rmeta) {
				panic("mpi: wire framing corrupt: bruck block out of bounds")
			}
			b := seg{n: n, meta: rmeta[om : om+nm]}
			om += nm
			if coded(i, 2*k-1) {
				if oh+n > len(r.u16) {
					panic("mpi: wire framing corrupt: bruck fp16 payload short")
				}
				b.u16 = r.u16[oh : oh+n]
				oh += n
			} else {
				if of+n > len(r.data) {
					panic("mpi: wire framing corrupt: bruck payload short")
				}
				b.f32 = r.data[of : of+n]
				of += n
			}
			blocks[i] = b
		}
		if r.staged {
			e.rel.f32 = append(e.rel.f32, r.data)
			e.rel.u16 = append(e.rel.u16, r.u16)
		}
	}
	for i := 1; i < p; i++ {
		e.sched[(me-i+p)%p] = blocks[i]
	}
}

// parseScatter decodes a down-leg framed [k, (src, n, nmeta)×k,
// meta...] into segs; all payloads are FP32 views into one staged
// buffer, released once after assembly.
func parseScatter(m message, me int, segs []seg, rel *relList) {
	if len(m.ints) < 1 {
		panic("mpi: wire framing corrupt: scatter header missing")
	}
	k := m.ints[0]
	if k < 0 || len(m.ints) < 1+3*k {
		panic(fmt.Sprintf("mpi: wire framing corrupt: scatter header k=%d len=%d", k, len(m.ints)))
	}
	hdr := m.ints[1 : 1+3*k]
	meta := m.ints[1+3*k:]
	offD, offM := 0, 0
	for i := 0; i < k; i++ {
		src, n, nm := hdr[3*i], hdr[3*i+1], hdr[3*i+2]
		if n < 0 || nm < 0 || offD+n > len(m.data) || offM+nm > len(meta) {
			panic("mpi: wire framing corrupt: scatter entry out of bounds")
		}
		segs[src] = seg{n: n, f32: m.data[offD : offD+n], meta: meta[offM : offM+nm]}
		offD += n
		offM += nm
	}
	if m.staged && m.data != nil {
		rel.f32 = append(rel.f32, m.data)
	}
}

// leaderAgg accumulates chunks bound for one destination supernode,
// framed as (src, dst, n, nmeta) quads.
type leaderAgg struct {
	hdr  []int
	data []float32
	meta []int
}

// leaderExchange runs the leader side of the hierarchical protocol:
// absorb up-legs (own buffered + members'), exchange aggregates
// pairwise with peer leaders (FP16-coded when selected — these are
// the machine-level links), then scatter down-legs to members and
// keep this rank's own share in segs.
func (e *Exchange) leaderExchange(segs []seg, rel *relList) {
	c := e.c
	nl := len(e.leaders)
	aggs := make([]leaderAgg, nl)

	absorb := func(src, k int, hdr, meta []int, data []float32) {
		offD, offM := 0, 0
		for i := 0; i < k; i++ {
			dst, n, nm := hdr[3*i], hdr[3*i+1], hdr[3*i+2]
			if n < 0 || nm < 0 || offD+n > len(data) || offM+nm > len(meta) {
				panic("mpi: wire framing corrupt: up-leg entry out of bounds")
			}
			li := e.leaderIdx[c.leaderOf(dst)]
			a := &aggs[li]
			a.hdr = append(a.hdr, src, dst, n, nm)
			a.data = append(a.data, data[offD:offD+n]...)
			a.meta = append(a.meta, meta[offM:offM+nm]...)
			offD += n
			offM += nm
		}
	}

	// Own cross-supernode chunks were buffered at Post time.
	absorb(c.rank, len(e.upHdr)/3, e.upHdr, e.upMeta, e.upData)
	for _, mb := range e.members {
		if mb == c.rank {
			continue
		}
		m := c.recvStep(mb, collTag(c.id, e.seq, stepUp))
		if len(m.ints) < 1 {
			panic("mpi: wire framing corrupt: up-leg header missing")
		}
		k := m.ints[0]
		if k < 0 || len(m.ints) < 1+3*k {
			panic(fmt.Sprintf("mpi: wire framing corrupt: up-leg k=%d len=%d", k, len(m.ints)))
		}
		absorb(mb, k, m.ints[1:1+3*k], m.ints[1+3*k:], m.data)
		if m.staged && m.data != nil {
			tensor.PutSlice(m.data)
		}
	}

	// Pairwise aggregate exchange between leaders. Chunks between
	// members of this supernode never reach the X-leg, so recvAgg[me]
	// stays empty.
	me := e.leaderIdx[c.rank]
	recvAgg := make([]leaderAgg, nl)
	tagX := collTag(c.id, e.seq, stepX)
	for s := 1; s < nl; s++ {
		dst := (me + s) % nl
		src := (me - s + nl) % nl
		e.sendX(e.leaders[dst], &aggs[dst], tagX)
		m := c.recvStep(e.leaders[src], tagX)
		recvAgg[src] = e.parseX(m, rel)
	}

	// Scatter: regroup received aggregates per destination member.
	p := c.Size()
	downHdr := make([][]int, p)
	downData := make([][]float32, p)
	downMeta := make([][]int, p)
	for li := range recvAgg {
		a := &recvAgg[li]
		offD, offM := 0, 0
		for i := 0; i < len(a.hdr); i += 4 {
			src, dst, n, nm := a.hdr[i], a.hdr[i+1], a.hdr[i+2], a.hdr[i+3]
			downHdr[dst] = append(downHdr[dst], src, n, nm)
			downData[dst] = append(downData[dst], a.data[offD:offD+n]...)
			downMeta[dst] = append(downMeta[dst], a.meta[offM:offM+nm]...)
			offD += n
			offM += nm
		}
	}
	for _, mb := range e.members {
		if mb == c.rank {
			continue
		}
		k := len(downHdr[mb]) / 3
		ints := make([]int, 1+len(downHdr[mb])+len(downMeta[mb]))
		ints[0] = k
		copy(ints[1:], downHdr[mb])
		copy(ints[1+len(downHdr[mb]):], downMeta[mb])
		s := tensor.GetSlice(len(downData[mb]))
		copy(s, downData[mb])
		e.send(mb, message{tag: collTag(c.id, e.seq, stepDown), ints: ints, data: s, staged: true})
	}
	// Own share stays local.
	hdr := downHdr[c.rank]
	meta := downMeta[c.rank]
	data := downData[c.rank]
	od, om := 0, 0
	for i := 0; i < len(hdr); i += 3 {
		src, n, nm := hdr[i], hdr[i+1], hdr[i+2]
		segs[src] = seg{n: n, f32: data[od : od+n], meta: meta[om : om+nm]}
		od += n
		om += nm
	}
}

// sendX ships one leader aggregate, framed [k, (src, dst, n, nmeta)
// ×k, meta...], FP16-coded when the codec is enabled (leader pairs
// always sit in different supernodes).
func (e *Exchange) sendX(dstLeader int, a *leaderAgg, tag int) {
	k := len(a.hdr) / 4
	ints := make([]int, 1+len(a.hdr)+len(a.meta))
	ints[0] = k
	copy(ints[1:], a.hdr)
	copy(ints[1+len(a.hdr):], a.meta)
	m := message{tag: tag, ints: ints, staged: true}
	if e.coded(e.c.rank, dstLeader) {
		u := getU16(len(a.data))
		half.EncodeSlice(u, a.data)
		m.u16 = u
	} else {
		s := tensor.GetSlice(len(a.data))
		copy(s, a.data)
		m.data = s
	}
	e.send(dstLeader, m)
}

// parseX decodes a received leader aggregate back to FP32.
func (e *Exchange) parseX(m message, rel *relList) leaderAgg {
	if len(m.ints) < 1 {
		panic("mpi: wire framing corrupt: X-leg header missing")
	}
	k := m.ints[0]
	if k < 0 || len(m.ints) < 1+4*k {
		panic(fmt.Sprintf("mpi: wire framing corrupt: X-leg k=%d len=%d", k, len(m.ints)))
	}
	a := leaderAgg{hdr: m.ints[1 : 1+4*k], meta: m.ints[1+4*k:]}
	total := 0
	for i := 0; i < k; i++ {
		total += a.hdr[4*i+2]
	}
	if m.u16 != nil {
		if len(m.u16) != total {
			panic(fmt.Sprintf("mpi: wire framing corrupt: X fp16 payload %d vs %d", len(m.u16), total))
		}
		a.data = tensor.GetSlice(total)
		half.DecodeSlice(a.data, m.u16)
		if m.staged {
			putU16(m.u16)
		}
		rel.f32 = append(rel.f32, a.data)
		return a
	}
	if len(m.data) != total {
		panic(fmt.Sprintf("mpi: wire framing corrupt: X payload %d vs %d", len(m.data), total))
	}
	a.data = m.data
	if m.staged {
		rel.f32 = append(rel.f32, m.data)
	}
	return a
}

// RecvLocal blocks for the cheap leg (self + same-supernode sources)
// and returns their tokens. Call exactly once, after Flush.
func (e *Exchange) RecvLocal() *RecvBuf {
	if !e.flushed {
		panic("mpi: Exchange.RecvLocal before Flush")
	}
	if e.localDone {
		panic("mpi: Exchange.RecvLocal twice")
	}
	e.localDone = true
	segs := make([]seg, e.c.Size())
	var rel relList
	e.collectLocal(segs, &rel)
	return e.assemble(segs, e.localSrcs(), &rel)
}

// RecvRemote blocks for the cross-supernode leg and returns its
// tokens. Call exactly once, after RecvLocal.
func (e *Exchange) RecvRemote() *RecvBuf {
	if !e.localDone {
		panic("mpi: Exchange.RecvRemote before RecvLocal")
	}
	if e.remoteDone {
		panic("mpi: Exchange.RecvRemote twice")
	}
	e.remoteDone = true
	segs := make([]seg, e.c.Size())
	var rel relList
	e.collectRemote(segs, &rel)
	return e.assemble(segs, e.remoteSrcs(), &rel)
}

// RecvAll completes both legs into one merged buffer covering every
// source — the blocking path.
func (e *Exchange) RecvAll() *RecvBuf {
	if !e.flushed {
		panic("mpi: Exchange.RecvAll before Flush")
	}
	if e.localDone || e.remoteDone {
		panic("mpi: Exchange.RecvAll after RecvLocal/RecvRemote")
	}
	e.localDone, e.remoteDone = true, true
	segs := make([]seg, e.c.Size())
	var rel relList
	e.collectLocal(segs, &rel)
	e.collectRemote(segs, &rel)
	srcs := make([]int, e.c.Size())
	for i := range srcs {
		srcs[i] = i
	}
	return e.assemble(segs, srcs, &rel)
}

// AllToAllv runs a blocking flattened exchange with the algorithm
// best matching the topology (Auto).
func (c *Comm) AllToAllv(sb *SendBuf, codec Codec) *RecvBuf {
	return c.AllToAllvAlgo(Auto, sb, codec)
}

// AllToAllvAlgo runs a blocking flattened exchange of sb with algo.
func (c *Comm) AllToAllvAlgo(algo Algo, sb *SendBuf, codec Codec) *RecvBuf {
	e := c.BeginExchange(algo, codec)
	e.PostAll(sb)
	e.Flush()
	return e.RecvAll()
}

// leaderMaps returns the comm's cached supernode -> leader-rank map
// and the leader list in first-appearance order, building both with
// one O(P) pass on first use.
func (c *Comm) leaderMaps() (map[int]int, []int) {
	if c.snLeader == nil {
		t := c.Topology()
		c.snLeader = make(map[int]int)
		for q := 0; q < c.Size(); q++ {
			sn := t.Supernode(c.group[q])
			if _, ok := c.snLeader[sn]; !ok {
				c.snLeader[sn] = q
				c.leaderList = append(c.leaderList, q)
			}
		}
	}
	return c.snLeader, c.leaderList
}

// leaderOf returns the leader comm rank of the supernode containing
// comm rank r.
func (c *Comm) leaderOf(r int) int {
	snLeader, _ := c.leaderMaps()
	return snLeader[c.Topology().Supernode(c.group[r])]
}
