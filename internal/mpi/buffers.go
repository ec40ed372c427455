package mpi

import (
	"fmt"

	"bagualu/internal/tensor"
)

// SendBuf is the flattened send side of an all-to-allv exchange: one
// pooled contiguous payload holding counts[d] floats destined to each
// rank d, plus optional per-destination int metadata that rides in
// the same messages. Build with NewSendBuf + Append, hand to an
// Exchange (or a blocking AllToAllv*), then Release.
type SendBuf struct {
	data   []float32 // pooled, len = sum(counts)
	counts []int
	offs   []int
	fill   []int   // append cursor per destination
	meta   [][]int // nil until the first AppendMeta
}

// NewSendBuf sizes a send buffer for counts[d] floats per destination
// over one pooled backing slice.
func NewSendBuf(counts []int) *SendBuf {
	p := len(counts)
	ints := make([]int, 3*p) // counts, offs and fill in one allocation
	b := &SendBuf{counts: ints[:p:p], offs: ints[p : 2*p : 2*p], fill: ints[2*p:]}
	copy(b.counts, counts)
	total := 0
	for d, n := range counts {
		if n < 0 {
			panic(fmt.Sprintf("mpi: negative send count %d for dst %d", n, d))
		}
		b.offs[d] = total
		total += n
	}
	b.data = tensor.GetSlice(total)
	return b
}

// Append copies row into the next free slot of dst's region.
func (b *SendBuf) Append(dst int, row []float32) {
	off := b.offs[dst] + b.fill[dst]
	if b.fill[dst]+len(row) > b.counts[dst] {
		panic(fmt.Sprintf("mpi: SendBuf overflow for dst %d (%d+%d > %d)",
			dst, b.fill[dst], len(row), b.counts[dst]))
	}
	copy(b.data[off:off+len(row)], row)
	b.fill[dst] += len(row)
}

// AppendMeta records one metadata int for dst; metadata rides in the
// same message as dst's payload.
func (b *SendBuf) AppendMeta(dst int, v int) {
	if b.meta == nil {
		b.meta = make([][]int, len(b.counts))
	}
	b.meta[dst] = append(b.meta[dst], v)
}

// Chunk returns the full payload region destined to dst (a view into
// the flat buffer; valid until Release).
func (b *SendBuf) Chunk(dst int) []float32 {
	return b.data[b.offs[dst] : b.offs[dst]+b.counts[dst]]
}

// Meta returns the metadata recorded for dst.
func (b *SendBuf) Meta(dst int) []int {
	if b.meta == nil {
		return nil
	}
	return b.meta[dst]
}

// Count returns the number of floats destined to dst.
func (b *SendBuf) Count(dst int) int { return b.counts[dst] }

// Release returns the backing buffer to the pool. Safe after Flush
// (every message stages its own copy).
func (b *SendBuf) Release() {
	tensor.PutSlice(b.data)
	b.data = nil
}

// RecvBuf is the flattened receive side: one pooled contiguous
// payload grouped by source rank in ascending order, plus the
// per-source metadata that rode in the messages.
type RecvBuf struct {
	data   []float32 // pooled, len = sum over srcs of counts
	counts []int     // indexed by comm rank; 0 for absent sources
	offs   []int
	meta   [][]int
	srcs   []int // sources present, ascending
}

// Srcs lists the source ranks this buffer covers, ascending.
func (b *RecvBuf) Srcs() []int { return b.srcs }

// Count returns the number of floats received from src.
func (b *RecvBuf) Count(src int) int { return b.counts[src] }

// Chunk returns the payload received from src (a view; valid until
// Release).
func (b *RecvBuf) Chunk(src int) []float32 {
	return b.data[b.offs[src] : b.offs[src]+b.counts[src]]
}

// Meta returns the metadata received from src.
func (b *RecvBuf) Meta(src int) []int { return b.meta[src] }

// Rows validates src's variable-length framing against a row width of
// d floats and returns the row count. Dropless MoE dispatch sends
// exactly what routed — no capacity padding — so the payload must be
// a whole number of d-wide rows and every row must carry exactly one
// metadata slot id; any disagreement means the counts header and the
// payload were framed inconsistently, and we fail loudly rather than
// misattribute rows to experts.
func (b *RecvBuf) Rows(src, d int) int {
	n := b.counts[src]
	if d <= 0 || n%d != 0 {
		panic(fmt.Sprintf("mpi: recv payload from %d is %d floats, not a multiple of row width %d", src, n, d))
	}
	rows := n / d
	if m := len(b.meta[src]); m != rows {
		panic(fmt.Sprintf("mpi: recv framing mismatch from %d: %d rows of %d floats but %d metadata slots", src, rows, d, m))
	}
	return rows
}

// Release returns the backing buffer to the pool.
func (b *RecvBuf) Release() {
	tensor.PutSlice(b.data)
	b.data = nil
}
