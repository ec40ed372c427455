package mpi

import (
	"fmt"
	"sort"

	"bagualu/internal/simnet"
)

// Tag-space layout. Every message tag encodes the communicator id,
// whether it is point-to-point or collective traffic, and a sequence
// number, so concurrent communicators sharing a rank can never
// confuse each other's messages.
const (
	tagCommShift = 40
	tagP2PBit    = 1 << 39
	tagSeqShift  = 10 // low 10 bits are the step within a collective
)

// Comm is a communicator: an ordered group of ranks. Rank i of the
// communicator is the goroutine whose global rank is group[i].
// Communicators are created by World.Run (the world communicator) and
// Split. A Comm value is owned by one rank's goroutine and must not
// be shared across goroutines.
type Comm struct {
	proc  *proc
	group []int // comm rank -> global rank
	rank  int   // this process's rank within the comm
	id    int64 // communicator id for tag isolation
	seq   int64 // collective sequence number (advances in lockstep)
	born  int64 // world failure count at creation (implicit revocation)

	nextChildID int64 // id to assign at the next Split

	wire WireStats // flattened-exchange traffic staged by this comm

	// Lazily built topology caches (group and topology are fixed for
	// the comm's lifetime; a Comm is owned by one rank's goroutine, so
	// no locking is needed). snLeader maps supernode id -> leader comm
	// rank; leaderList holds leaders in first-appearance order; sn is
	// this rank's supernode group.
	snLeader   map[int]int
	leaderList []int
	sn         *snGroup
}

func newWorldComm(w *World, rank int) *Comm {
	group := make([]int, w.size)
	for i := range group {
		group[i] = i
	}
	return &Comm{
		proc:        &proc{w: w, global: rank},
		group:       group,
		rank:        rank,
		id:          0,
		born:        w.failCount.Load(),
		nextChildID: 1,
	}
}

// SelfComm returns the communicator of a fresh one-rank world on the
// zero-cost uniform topology, for use outside Run: layers built on a
// communicator run their single-rank case on it. Every exchange is a
// self copy that costs no virtual time.
func SelfComm() *Comm { return newWorldComm(NewWorld(1, nil), 0) }

// Rank returns this process's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// Global returns the global (world) rank of comm rank r.
func (c *Comm) Global(r int) int { return c.group[r] }

// World returns the underlying world.
func (c *Comm) World() *World { return c.proc.w }

// Topology returns the pricing topology.
func (c *Comm) Topology() *simnet.Topology { return c.proc.w.topo }

// Now returns this rank's virtual clock in seconds.
func (c *Comm) Now() float64 { return c.proc.now }

// Compute charges local computation time to the virtual clock. The
// trainer uses it to account simulated GEMM time so that compute/
// communication overlap and breakdowns are meaningful. A straggler
// rank's charges are stretched by its delay multiplier: a slow node
// computes slowly, not just its links (this is what makes migrating
// work OFF a straggler worthwhile).
func (c *Comm) Compute(seconds float64) {
	if seconds < 0 {
		panic("mpi: negative compute time")
	}
	c.proc.now += seconds * c.proc.w.computeDelay(c.proc.global)
}

// AdvanceTo moves this rank's virtual clock forward to absolute time t
// (no-op if the clock is already past it). Unlike Compute, the advance
// is NOT stretched by a straggler's delay multiplier: waiting for a
// wall-clock instant — an arrival, a restore deadline — takes the same
// time on a slow node as on a fast one.
func (c *Comm) AdvanceTo(t float64) {
	if t > c.proc.now {
		c.proc.now = t
	}
}

// p2pTag builds the wire tag for a user point-to-point tag.
func (c *Comm) p2pTag(userTag int) int {
	if userTag < 0 || userTag >= tagP2PBit>>1 {
		panic(fmt.Sprintf("mpi: user tag %d out of range", userTag))
	}
	return int(c.id<<tagCommShift) | tagP2PBit | userTag
}

// collTag builds the wire tag for step within the collective
// identified by seq.
func collTag(id, seq int64, step int) int {
	if step < 0 || step >= 1<<tagSeqShift {
		panic(fmt.Sprintf("mpi: collective step %d out of range", step))
	}
	return int(id<<tagCommShift) | int(seq<<tagSeqShift) | step
}

// nextSeq advances the collective sequence number; all ranks of a
// communicator execute collectives in the same order, so the counters
// stay synchronized without communication.
func (c *Comm) nextSeq() int64 {
	s := c.seq
	c.seq++
	if c.seq >= 1<<(tagCommShift-tagSeqShift-1) {
		c.seq = 0
	}
	return s
}

// Send delivers data to comm rank dst with a user tag. It does not
// block (eager buffered semantics).
func (c *Comm) Send(dst, tag int, data []float32) {
	c.proc.send(c.group[dst], c.p2pTag(tag), data, nil)
}

// SendInts delivers an int payload to comm rank dst.
func (c *Comm) SendInts(dst, tag int, xs []int) {
	c.proc.send(c.group[dst], c.p2pTag(tag), nil, xs)
}

// SendMsg delivers a combined float/int payload to comm rank dst.
func (c *Comm) SendMsg(dst, tag int, data []float32, ints []int) {
	c.proc.send(c.group[dst], c.p2pTag(tag), data, ints)
}

// Recv blocks until a message with the tag from comm rank src
// arrives and returns its float payload. src may be AnySource.
func (c *Comm) Recv(src, tag int) []float32 {
	d, _ := c.RecvMsg(src, tag)
	return d
}

// RecvInts blocks for a message and returns its int payload.
func (c *Comm) RecvInts(src, tag int) []int {
	_, xs := c.RecvMsg(src, tag)
	return xs
}

// RecvMsg blocks for a message and returns both payloads.
func (c *Comm) RecvMsg(src, tag int) ([]float32, []int) {
	gsrc := AnySource
	if src != AnySource {
		gsrc = c.group[src]
	}
	m := c.proc.recv(gsrc, c.p2pTag(tag), c.group, c.born)
	return m.data, m.ints
}

// sendStep/recvStep are the internal primitives collectives use; they
// address comm ranks and collective tags.
func (c *Comm) sendStep(dst int, tag int, data []float32, ints []int) {
	c.proc.send(c.group[dst], tag, data, ints)
}

func (c *Comm) recvStep(src int, tag int) message {
	g := AnySource
	if src != AnySource {
		g = c.group[src]
	}
	return c.proc.recv(g, tag, c.group, c.born)
}

// Split partitions the communicator by color; ranks passing the same
// color form a new communicator ordered by (key, rank). Every rank of
// c must call Split. Ranks passing a negative color receive nil.
func (c *Comm) Split(color, key int) *Comm {
	// Allgather (color, key) using the existing collective machinery.
	mine := []int{color, key}
	all := c.AllGatherInts(mine)
	childID := c.nextChildID
	c.nextChildID++

	if color < 0 {
		return nil
	}
	type member struct{ color, key, rank int }
	var members []member
	for r := 0; r < c.Size(); r++ {
		col, k := all[2*r], all[2*r+1]
		if col == color {
			members = append(members, member{col, k, r})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].rank < members[j].rank
	})
	group := make([]int, len(members))
	myRank := -1
	for i, m := range members {
		group[i] = c.group[m.rank]
		if m.rank == c.rank {
			myRank = i
		}
	}
	return &Comm{
		proc:        c.proc,
		group:       group,
		rank:        myRank,
		id:          childID,
		born:        c.proc.w.failCount.Load(),
		nextChildID: childID<<8 + 1,
	}
}
