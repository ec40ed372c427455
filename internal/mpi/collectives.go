package mpi

import (
	"fmt"

	"bagualu/internal/simnet"
)

// ReduceOp combines src into dst elementwise. dst and src have equal
// length.
type ReduceOp func(dst, src []float32)

// OpSum adds src into dst.
func OpSum(dst, src []float32) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// OpMax keeps the elementwise maximum in dst.
func OpMax(dst, src []float32) {
	for i := range dst {
		if src[i] > dst[i] {
			dst[i] = src[i]
		}
	}
}

// Barrier blocks until every rank of the communicator has entered it.
// It uses the dissemination algorithm: ceil(log2 P) rounds of
// point-to-point messages.
func (c *Comm) Barrier() {
	seq := c.nextSeq()
	p := c.Size()
	for k, step := 1, 0; k < p; k, step = k<<1, step+1 {
		dst := (c.rank + k) % p
		src := (c.rank - k + p) % p
		tag := collTag(c.id, seq, step)
		c.sendStep(dst, tag, nil, nil)
		c.recvStep(src, tag)
	}
}

// Bcast distributes root's data to every rank using a binomial tree
// and returns it. Non-root ranks may pass nil.
func (c *Comm) Bcast(root int, data []float32) []float32 {
	seq := c.nextSeq()
	d, _ := c.bcastTree(seq, 0, root, data, nil)
	return d
}

// BcastInts is Bcast for int payloads.
func (c *Comm) BcastInts(root int, xs []int) []int {
	seq := c.nextSeq()
	_, out := c.bcastTree(seq, 0, root, nil, xs)
	return out
}

// bcastTree runs a binomial-tree broadcast rooted at root, using tag
// steps starting at stepBase. It is shared by Bcast and the
// hierarchical collectives.
func (c *Comm) bcastTree(seq int64, stepBase, root int, data []float32, ints []int) ([]float32, []int) {
	p := c.Size()
	// Work in a rotated space where the root is rank 0.
	vrank := (c.rank - root + p) % p
	tag := collTag(c.id, seq, stepBase)
	if vrank != 0 {
		// Receive from parent: clear the lowest set bit.
		parent := (vrank&(vrank-1) + root) % p
		m := c.recvStep(parent, tag)
		data, ints = m.data, m.ints
	}
	// Forward to children: set each bit above the lowest set bit...
	// Children of vrank v are v | (1<<k) for k above v's highest set
	// bit. Standard binomial: for k from lowest free bit upward.
	for k := 1; k < p; k <<= 1 {
		if vrank&k != 0 {
			break
		}
		child := vrank | k
		if child < p {
			c.sendStep((child+root)%p, tag, data, ints)
		}
	}
	return data, ints
}

// Reduce combines each rank's data with op, leaving the result on
// root. All ranks receive the reduced slice only on root (others get
// nil). data is not modified.
func (c *Comm) Reduce(root int, data []float32, op ReduceOp) []float32 {
	seq := c.nextSeq()
	return c.reduceTree(seq, 0, root, data, op)
}

func (c *Comm) reduceTree(seq int64, stepBase, root int, data []float32, op ReduceOp) []float32 {
	p := c.Size()
	vrank := (c.rank - root + p) % p
	acc := append([]float32(nil), data...)
	tag := collTag(c.id, seq, stepBase)
	// Mirror image of the binomial bcast: receive from children
	// first (highest bit down), then send to parent.
	for k := 1; k < p; k <<= 1 {
		if vrank&k != 0 {
			parent := (vrank ^ k + root) % p
			c.sendStep(parent, tag, acc, nil)
			return nil
		}
		child := vrank | k
		if child < p {
			m := c.recvStep((child+root)%p, tag)
			op(acc, m.data)
		}
	}
	return acc
}

// AllReduce combines data across all ranks with op and returns the
// result on every rank. It selects the hierarchical algorithm when
// the communicator spans multiple supernodes, and the ring otherwise.
func (c *Comm) AllReduce(data []float32, op ReduceOp) []float32 {
	if c.prefersHier() {
		return c.AllReduceHier(data, op)
	}
	return c.AllReduceRing(data, op)
}

// prefersHier is the one topology rule every collective selects its
// algorithm by: take the hierarchical (supernode-leader) path when the
// communicator spans supernodes and has at least 4 ranks.
func (c *Comm) prefersHier() bool { return c.spansSupernodes() && c.Size() >= 4 }

// spansSupernodes reports whether the communicator's members live in
// more than one supernode.
func (c *Comm) spansSupernodes() bool {
	t := c.Topology()
	first := t.Supernode(c.group[0])
	for _, g := range c.group[1:] {
		if t.Supernode(g) != first {
			return true
		}
	}
	return false
}

// AllReduceRing implements the bandwidth-optimal ring all-reduce:
// a reduce-scatter pass followed by an all-gather pass, 2(P-1) steps
// moving ~2·n/P bytes each.
func (c *Comm) AllReduceRing(data []float32, op ReduceOp) []float32 {
	seq := c.nextSeq()
	return c.allReduceRing(seq, 0, c.rank, c.Size(), func(r int) int { return r }, data, op)
}

// allReduceRing runs a ring all-reduce over a virtual group of size p
// in which this rank has index me; toComm maps a virtual index to a
// comm rank. The indirection lets the hierarchical algorithm reuse it
// over the leader subset.
func (c *Comm) allReduceRing(seq int64, stepBase, me, p int, toComm func(int) int, data []float32, op ReduceOp) []float32 {
	acc := append([]float32(nil), data...)
	if p == 1 {
		return acc
	}
	bounds := ringBounds(len(acc), p)
	tag := collTag(c.id, seq, stepBase)
	c.ringReduceScatter(tag, me, p, toComm, acc, bounds, op)
	c.ringAllGather(tag, me, p, toComm, acc, bounds)
	return acc
}

// ringBounds returns the p+1 chunk boundaries of the ring algorithms:
// chunk i covers [bounds[i], bounds[i+1]).
func ringBounds(n, p int) []int {
	bounds := make([]int, p+1)
	for i := 0; i <= p; i++ {
		bounds[i] = i * n / p
	}
	return bounds
}

// ringReduceScatter runs the reduce-scatter half of the ring
// all-reduce in place: after step s this rank holds the partial sum of
// chunk (me-s) reduced over s+1 contributors, so on return it owns the
// fully reduced chunk (me+1)%p. All ring messages under one tag ride
// FIFO per (src,tag) ordering.
func (c *Comm) ringReduceScatter(tag int, me, p int, toComm func(int) int, acc []float32, bounds []int, op ReduceOp) {
	next := toComm((me + 1) % p)
	prev := toComm((me - 1 + p) % p)
	for s := 0; s < p-1; s++ {
		sendChunk := (me - s + p) % p
		recvChunk := (me - s - 1 + p) % p
		c.sendStep(next, tag, acc[bounds[sendChunk]:bounds[sendChunk+1]], nil)
		m := c.recvStep(prev, tag)
		op(acc[bounds[recvChunk]:bounds[recvChunk+1]], m.data)
	}
}

// ringAllGather runs the all-gather half of the ring all-reduce:
// each rank enters owning chunk (me+1)%p (the reduce-scatter result)
// and circulates chunks until every rank holds all of acc.
func (c *Comm) ringAllGather(tag int, me, p int, toComm func(int) int, acc []float32, bounds []int) {
	next := toComm((me + 1) % p)
	prev := toComm((me - 1 + p) % p)
	for s := 0; s < p-1; s++ {
		sendChunk := (me + 1 - s + p) % p
		recvChunk := (me - s + p) % p
		c.sendStep(next, tag, acc[bounds[sendChunk]:bounds[sendChunk+1]], nil)
		m := c.recvStep(prev, tag)
		copy(acc[bounds[recvChunk]:bounds[recvChunk+1]], m.data)
	}
}

// AllReduceHier is the topology-aware all-reduce: reduce to a leader
// within each supernode, ring all-reduce among supernode leaders
// (the only traffic crossing the expensive level), then broadcast
// back within each supernode.
func (c *Comm) AllReduceHier(data []float32, op ReduceOp) []float32 {
	seq := c.nextSeq()
	members, leaderIdx, myLeader := c.supernodeGroup()

	// Phase 1 (steps 0): reduce to the local leader, sequential
	// binomial over the local member list.
	acc := append([]float32(nil), data...)
	local := c.localReduce(seq, 0, members, acc, op)

	// Phase 2 (step 1): ring all-reduce among leaders.
	if c.rank == myLeader {
		me := leaderIdx[c.rank]
		leaders := c.leaders(members)
		local = c.allReduceRing(seq, 1, me, len(leaders), func(i int) int { return leaders[i] }, local, op)
	}

	// Phase 3 (step 2): broadcast within the supernode group.
	return c.localBcast(seq, 2, members, myLeader, local)
}

// snGroup is this rank's supernode group within a communicator. The
// group and topology are fixed for the comm's lifetime, so it is built
// once (see supernodeGroup); every field is read-only afterwards.
type snGroup struct {
	members   []int       // comm ranks sharing this rank's supernode, ascending
	inSN      []bool      // comm rank -> in members
	leaderIdx map[int]int // leader comm rank -> index among all leaders
	myLeader  int
}

// supernodeGroup returns, for this rank, the comm ranks sharing its
// supernode (members, sorted ascending), a map from leader comm rank
// to its index among all leaders, and this rank's leader. The results
// are cached on the comm and must not be modified.
func (c *Comm) supernodeGroup() (members []int, leaderIdx map[int]int, myLeader int) {
	g := c.snGroupOf()
	return g.members, g.leaderIdx, g.myLeader
}

func (c *Comm) snGroupOf() *snGroup {
	if c.sn != nil {
		return c.sn
	}
	t := c.Topology()
	mySN := t.Supernode(c.group[c.rank])
	g := &snGroup{leaderIdx: make(map[int]int), inSN: make([]bool, c.Size())}
	seen := make(map[int]int) // supernode -> leader comm rank
	nLeaders := 0
	for r := 0; r < c.Size(); r++ {
		sn := t.Supernode(c.group[r])
		if _, ok := seen[sn]; !ok {
			seen[sn] = r
			g.leaderIdx[r] = nLeaders
			nLeaders++
		}
		if sn == mySN {
			g.members = append(g.members, r)
			g.inSN[r] = true
		}
	}
	g.myLeader = seen[mySN]
	c.sn = g
	return g
}

// leaders lists all leader comm ranks in first-appearance order,
// served from the comm's cached topology maps.
func (c *Comm) leaders(_ []int) []int {
	_, list := c.leaderMaps()
	return list
}

// localReduce reduces acc over the members list onto its first
// element (the leader) with a binomial tree over member positions.
func (c *Comm) localReduce(seq int64, stepBase int, members []int, acc []float32, op ReduceOp) []float32 {
	pos := indexOf(members, c.rank)
	p := len(members)
	tag := collTag(c.id, seq, stepBase)
	for k := 1; k < p; k <<= 1 {
		if pos&k != 0 {
			c.sendStep(members[pos^k], tag, acc, nil)
			return acc
		}
		if pos|k < p {
			m := c.recvStep(members[pos|k], tag)
			op(acc, m.data)
		}
	}
	return acc
}

// localBcast broadcasts data from leader (a comm rank in members) to
// all members with a binomial tree.
func (c *Comm) localBcast(seq int64, stepBase int, members []int, leader int, data []float32) []float32 {
	pos := indexOf(members, c.rank)
	rootPos := indexOf(members, leader)
	p := len(members)
	v := (pos - rootPos + p) % p
	tag := collTag(c.id, seq, stepBase)
	if v != 0 {
		parent := members[((v&(v-1))+rootPos)%p]
		m := c.recvStep(parent, tag)
		data = m.data
	}
	for k := 1; k < p; k <<= 1 {
		if v&k != 0 {
			break
		}
		if v|k < p {
			c.sendStep(members[((v|k)+rootPos)%p], tag, data, nil)
		}
	}
	return data
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	panic(fmt.Sprintf("mpi: rank %d not in group %v", v, xs))
}

// AllGather concatenates each rank's equal-length data in rank order
// and returns the full slice on every rank (ring algorithm).
func (c *Comm) AllGather(data []float32) []float32 {
	seq := c.nextSeq()
	p := c.Size()
	n := len(data)
	out := make([]float32, n*p)
	copy(out[c.rank*n:], data)
	if p == 1 {
		return out
	}
	next := (c.rank + 1) % p
	prev := (c.rank - 1 + p) % p
	tag := collTag(c.id, seq, 0)
	for s := 0; s < p-1; s++ {
		sendChunk := (c.rank - s + p) % p
		recvChunk := (c.rank - s - 1 + p) % p
		c.sendStep(next, tag, out[sendChunk*n:(sendChunk+1)*n], nil)
		m := c.recvStep(prev, tag)
		if len(m.data) != n {
			panic(fmt.Sprintf("mpi: AllGather length mismatch: %d vs %d", len(m.data), n))
		}
		copy(out[recvChunk*n:], m.data)
	}
	return out
}

// AllGatherInts concatenates equal-length int payloads in rank order.
func (c *Comm) AllGatherInts(xs []int) []int {
	seq := c.nextSeq()
	p := c.Size()
	n := len(xs)
	out := make([]int, n*p)
	copy(out[c.rank*n:], xs)
	if p == 1 {
		return out
	}
	next := (c.rank + 1) % p
	prev := (c.rank - 1 + p) % p
	tag := collTag(c.id, seq, 0)
	for s := 0; s < p-1; s++ {
		sendChunk := (c.rank - s + p) % p
		recvChunk := (c.rank - s - 1 + p) % p
		c.sendStep(next, tag, nil, out[sendChunk*n:(sendChunk+1)*n])
		m := c.recvStep(prev, tag)
		copy(out[recvChunk*n:], m.ints)
	}
	return out
}

// Gather collects each rank's data (arbitrary lengths) on root, in
// rank order. Non-root ranks receive nil.
func (c *Comm) Gather(root int, data []float32) [][]float32 {
	seq := c.nextSeq()
	tag := collTag(c.id, seq, 0)
	if c.rank != root {
		c.sendStep(root, tag, data, nil)
		return nil
	}
	out := make([][]float32, c.Size())
	out[root] = append([]float32(nil), data...)
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		m := c.recvStep(r, tag)
		out[r] = m.data
	}
	return out
}

// ReduceScatter reduces data elementwise across ranks and leaves
// chunk r (the r-th of P equal-boundary chunks) on rank r. It is the
// first half of the ring all-reduce.
func (c *Comm) ReduceScatter(data []float32, op ReduceOp) []float32 {
	seq := c.nextSeq()
	p := c.Size()
	acc := append([]float32(nil), data...)
	n := len(acc)
	bounds := make([]int, p+1)
	for i := 0; i <= p; i++ {
		bounds[i] = i * n / p
	}
	if p == 1 {
		return acc
	}
	next := (c.rank + 1) % p
	prev := (c.rank - 1 + p) % p
	tag := collTag(c.id, seq, 0)
	for s := 0; s < p-1; s++ {
		sendChunk := (c.rank - s - 1 + 2*p) % p
		recvChunk := (c.rank - s - 2 + 2*p) % p
		c.sendStep(next, tag, acc[bounds[sendChunk]:bounds[sendChunk+1]], nil)
		m := c.recvStep(prev, tag)
		op(acc[bounds[recvChunk]:bounds[recvChunk+1]], m.data)
	}
	return append([]float32(nil), acc[bounds[c.rank]:bounds[c.rank+1]]...)
}

// levelOfComm is a debugging helper reporting the worst level any
// pair of this communicator's ranks crosses.
func (c *Comm) levelOfComm() simnet.Level {
	t := c.Topology()
	worst := simnet.SelfLevel
	for i := 0; i < len(c.group); i++ {
		for j := i + 1; j < len(c.group); j++ {
			if l := t.LevelOf(c.group[i], c.group[j]); l > worst {
				worst = l
			}
		}
	}
	return worst
}
