package mpi

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"bagualu/internal/half"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
)

// Property-based fuzzing of the collectives: for randomized world
// sizes, payload lengths, and contents, every algorithm must agree
// with a serially-computed reference.

func fuzzTopo(ranks int) *simnet.Topology {
	nodes := (ranks + 1) / 2
	sns := (nodes + 1) / 2
	if sns < 1 {
		sns = 1
	}
	return simnet.New(sunway.TestMachine(sns, 2), 2)
}

func TestPropAllReduceMatchesSerialSum(t *testing.T) {
	f := func(seed uint64, pRaw, nRaw uint8) bool {
		p := int(pRaw)%7 + 1
		n := int(nRaw)%33 + 1
		r := tensor.NewRNG(seed)
		inputs := make([][]float32, p)
		want := make([]float64, n)
		for rank := 0; rank < p; rank++ {
			inputs[rank] = make([]float32, n)
			for i := range inputs[rank] {
				v := r.Float32()*2 - 1
				inputs[rank][i] = v
				want[i] += float64(v)
			}
		}
		ok := true
		for _, algo := range []func(c *Comm, d []float32) []float32{
			func(c *Comm, d []float32) []float32 { return c.AllReduceRing(d, OpSum) },
			func(c *Comm, d []float32) []float32 { return c.AllReduceHier(d, OpSum) },
		} {
			w := NewWorld(p, fuzzTopo(p))
			w.Run(func(c *Comm) {
				got := algo(c, inputs[c.Rank()])
				for i := range got {
					if math.Abs(float64(got[i])-want[i]) > 1e-4 {
						ok = false
					}
				}
			})
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropAllToAllAlgorithmsAgreeFuzz(t *testing.T) {
	f := func(seed uint64, pRaw uint8) bool {
		p := int(pRaw)%8 + 1
		r := tensor.NewRNG(seed)
		// Random variable-length chunk matrix.
		chunks := make([][][]float32, p) // [src][dst]
		for s := 0; s < p; s++ {
			chunks[s] = make([][]float32, p)
			for d := 0; d < p; d++ {
				n := r.Intn(5)
				chunks[s][d] = make([]float32, n)
				for i := range chunks[s][d] {
					chunks[s][d][i] = float32(s*1000 + d*10 + i)
				}
			}
		}
		ok := true
		for _, algo := range []Algo{Auto, Direct, Pairwise, Hierarchical, Bruck} {
			w := NewWorld(p, fuzzTopo(p))
			w.Run(func(c *Comm) {
				counts := make([]int, p)
				for d := 0; d < p; d++ {
					counts[d] = len(chunks[c.Rank()][d])
				}
				sb := NewSendBuf(counts)
				for d := 0; d < p; d++ {
					sb.Append(d, chunks[c.Rank()][d])
				}
				rb := c.AllToAllvAlgo(algo, sb, FP32Wire)
				sb.Release()
				defer rb.Release()
				for s := 0; s < p; s++ {
					want := chunks[s][c.Rank()]
					got := rb.Chunk(s)
					if rb.Count(s) != len(want) || len(got) != len(want) {
						ok = false
						return
					}
					for i := range want {
						if got[i] != want[i] {
							ok = false
							return
						}
					}
				}
			})
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropBcastReduceDual(t *testing.T) {
	// Reduce of all-ones then Bcast must deliver the world size to
	// every rank, for any size and root.
	f := func(pRaw, rootRaw uint8) bool {
		p := int(pRaw)%9 + 1
		root := int(rootRaw) % p
		ok := true
		w := NewWorld(p, nil)
		w.Run(func(c *Comm) {
			red := c.Reduce(root, []float32{1}, OpSum)
			var out []float32
			if c.Rank() == root {
				out = red
			}
			got := c.Bcast(root, out)
			if got[0] != float32(p) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropAllToAllvFramingRoundTrip fuzzes the flattened wire format:
// random world sizes, per-pair counts, payloads, and metadata lists
// must round-trip through every algorithm × codec × receive mode,
// with the counts header always matching the absorbed chunk sizes.
func TestPropAllToAllvFramingRoundTrip(t *testing.T) {
	f := func(seed uint64, pRaw, mode uint8) bool {
		p := int(pRaw)%8 + 1
		r := tensor.NewRNG(seed)
		counts := make([][]int, p)  // [src][dst] floats
		metas := make([][][]int, p) // [src][dst] metadata
		vals := make([][][]float32, p)
		for s := 0; s < p; s++ {
			counts[s] = make([]int, p)
			metas[s] = make([][]int, p)
			vals[s] = make([][]float32, p)
			for d := 0; d < p; d++ {
				counts[s][d] = r.Intn(7)
				vals[s][d] = make([]float32, counts[s][d])
				for i := range vals[s][d] {
					// Small integers survive FP16 exactly, so both
					// codecs can be checked for exact round-trip.
					vals[s][d][i] = float32(r.Intn(512)) - 256
				}
				nm := r.Intn(4)
				metas[s][d] = make([]int, nm)
				for i := range metas[s][d] {
					metas[s][d][i] = s*10000 + d*100 + i
				}
			}
		}
		ok := true
		// check compares the sources one receive leg delivered; seen
		// counts each source so a dropped or doubled chunk shows.
		check := func(c *Comm, rb *RecvBuf, seen []int) {
			for _, s := range rb.Srcs() {
				seen[s]++
				want := vals[s][c.Rank()]
				if rb.Count(s) != len(want) {
					ok = false
					return
				}
				chunk := rb.Chunk(s)
				for i := range want {
					if chunk[i] != want[i] {
						ok = false
						return
					}
				}
				wm := metas[s][c.Rank()]
				gm := rb.Meta(s)
				if len(gm) != len(wm) {
					ok = false
					return
				}
				for i := range wm {
					if gm[i] != wm[i] {
						ok = false
						return
					}
				}
			}
		}
		for _, codec := range []Codec{FP32Wire, FP16Wire} {
			for _, algo := range []Algo{Auto, Direct, Pairwise, Hierarchical, Bruck} {
				w := NewWorld(p, fuzzTopo(p))
				w.Run(func(c *Comm) {
					sb := NewSendBuf(counts[c.Rank()])
					for d := 0; d < p; d++ {
						sb.Append(d, vals[c.Rank()][d])
						for _, v := range metas[c.Rank()][d] {
							sb.AppendMeta(d, v)
						}
					}
					seen := make([]int, p)
					switch mode % 3 {
					case 0: // blocking
						rb := c.AllToAllvAlgo(algo, sb, codec)
						check(c, rb, seen)
						rb.Release()
					case 1: // two-phase
						ex := c.BeginExchange(algo, codec)
						ex.PostAll(sb)
						ex.Flush()
						for _, rb := range []*RecvBuf{ex.RecvLocal(), ex.RecvRemote()} {
							check(c, rb, seen)
							rb.Release()
						}
					default: // one receive of the whole exchange
						ex := c.BeginExchange(algo, codec)
						ex.PostAll(sb)
						ex.Flush()
						rb := ex.RecvAll()
						check(c, rb, seen)
						rb.Release()
					}
					for _, n := range seen {
						if n != 1 {
							ok = false
						}
					}
					sb.Release()
				})
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestPropVirtualTimeMonotone(t *testing.T) {
	// A rank's clock never runs backward across any collective mix.
	f := func(seed uint64) bool {
		p := int(seed%6) + 2
		ok := true
		w := NewWorld(p, fuzzTopo(p))
		w.Run(func(c *Comm) {
			prev := c.Now()
			steps := []func(){
				func() { c.Barrier() },
				func() { c.AllReduce([]float32{1, 2}, OpSum) },
				func() { c.AllGather([]float32{float32(c.Rank())}) },
				func() {
					counts := make([]int, p)
					for d := range counts {
						counts[d] = 1
					}
					sb := NewSendBuf(counts)
					c.AllToAllv(sb, FP32Wire).Release()
					sb.Release()
				},
			}
			for _, s := range steps {
				s()
				if c.Now() < prev {
					ok = false
				}
				prev = c.Now()
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// FuzzAllToAllv fuzzes the one all-to-all stack over world size,
// topology, per-pair payload and metadata lengths, algorithm, codec,
// and receive mode. Every algorithm must deliver the counts,
// metadata, and data Direct/FP32 delivers — under FP16, cross-
// supernode payloads after exactly one half rounding — the counts
// header must match every absorbed chunk, a split receive must
// partition the sources by supernode, and the per-comm WireStats must
// account every message the network carried.
func FuzzAllToAllv(f *testing.F) {
	f.Fuzz(func(t *testing.T, pRaw, topoSel, algoRaw, codecRaw uint8, split bool, pairs []byte) {
		p := int(pRaw)%12 + 1
		topo := fuzzTopoOf(p, topoSel)
		algo := Algo(int(algoRaw) % 5)
		codec := Codec(int(codecRaw) % 2)
		pair := func(s, d int) (n, nmeta int) {
			if len(pairs) == 0 {
				return 0, 0
			}
			b := int(pairs[(s*p+d)%len(pairs)])
			return b % 8, (b >> 3) % 4
		}
		// Values with a fractional part FP16 cannot hold, so a missing
		// or doubled rounding shows.
		val := func(s, d, i int) float32 { return float32(s) + float32(d)/8 + float32(i)*0.0013 + 0.1 }

		run := func(algo Algo, codec Codec) {
			w := NewWorld(p, topo)
			stats := make([]WireStats, p)
			w.Run(func(c *Comm) {
				me := c.Rank()
				counts := make([]int, p)
				for d := range counts {
					counts[d], _ = pair(me, d)
				}
				sb := NewSendBuf(counts)
				for d := 0; d < p; d++ {
					n, nm := pair(me, d)
					for i := 0; i < n; i++ {
						sb.Append(d, []float32{val(me, d, i)})
					}
					for i := 0; i < nm; i++ {
						sb.AppendMeta(d, me*10000+d*100+i)
					}
				}
				ex := c.BeginExchange(algo, codec)
				ex.PostAll(sb)
				ex.Flush()
				sb.Release()
				var parts []*RecvBuf
				if split {
					parts = []*RecvBuf{ex.RecvLocal(), ex.RecvRemote()}
				} else {
					parts = []*RecvBuf{ex.RecvAll()}
				}

				topo := c.Topology()
				mySN := topo.Supernode(c.Global(me))
				seen := make([]int, p)
				for k, rb := range parts {
					for _, s := range rb.Srcs() {
						seen[s]++
						cross := topo.Supernode(c.Global(s)) != mySN
						if split && cross != (k == 1) {
							t.Errorf("%v/%v rank %d: src %d in wrong leg %d", algo, codec, me, s, k)
						}
						n, nm := pair(s, me)
						if rb.Count(s) != n {
							t.Errorf("%v/%v rank %d: count from %d = %d, want %d", algo, codec, me, s, rb.Count(s), n)
							continue
						}
						for i, v := range rb.Chunk(s) {
							want := val(s, me, i)
							if codec == FP16Wire && cross {
								want = half.RoundTrip32(want)
							}
							if v != want {
								t.Errorf("%v/%v rank %d: from %d elem %d = %v, want %v", algo, codec, me, s, i, v, want)
								break
							}
						}
						meta := rb.Meta(s)
						if len(meta) != nm {
							t.Errorf("%v/%v rank %d: %d meta from %d, want %d", algo, codec, me, len(meta), s, nm)
							continue
						}
						for i, v := range meta {
							if v != s*10000+me*100+i {
								t.Errorf("%v/%v rank %d: meta[%d] from %d = %d", algo, codec, me, i, s, v)
							}
						}
					}
					rb.Release()
				}
				for s, n := range seen {
					if n != 1 {
						t.Errorf("%v/%v rank %d: src %d delivered %d times", algo, codec, me, s, n)
					}
				}
				stats[me] = c.WireStats()
			})
			checkWireMatchesWorld(t, fmt.Sprintf("%v/%v", algo, codec), stats, w)
		}
		run(Direct, FP32Wire)
		run(algo, codec)
	})
}

// fuzzTopoOf maps a selector byte to a p-rank topology: a flat
// uniform network, or 1-2 ranks per node and 1-3 nodes per supernode.
func fuzzTopoOf(p int, sel uint8) *simnet.Topology {
	if sel%4 == 0 {
		return nil
	}
	rpn := 1 + int(sel/4)%2
	nps := 1 + int(sel/8)%3
	nodes := (p + rpn - 1) / rpn
	return simnet.New(sunway.TestMachine((nodes+nps-1)/nps, nps), rpn)
}

// checkWireMatchesWorld asserts that the per-comm WireStats of every
// rank, summed, equal the world's per-level byte and message counters
// on every real link level.
func checkWireMatchesWorld(t *testing.T, name string, stats []WireStats, w *World) {
	t.Helper()
	var sum WireStats
	for _, s := range stats {
		sum.Add(s)
	}
	for _, l := range []simnet.Level{simnet.NodeLevel, simnet.SupernodeLevel, simnet.MachineLevel} {
		if got, want := sum.Wire[l], w.Stats().BytesAt(l); got != want {
			t.Errorf("%s level %v: WireStats bytes %d, world %d", name, l, got, want)
		}
		if got, want := sum.Msgs[l], w.Stats().MsgsAt(l); got != want {
			t.Errorf("%s level %v: WireStats msgs %d, world %d", name, l, got, want)
		}
	}
}
