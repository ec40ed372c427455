package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

// Minimal protobuf encoding for building synthetic profiles.
func pbVarint(b []byte, field int, v uint64) []byte {
	b = binary.AppendUvarint(b, uint64(field)<<3)
	return binary.AppendUvarint(b, v)
}

func pbBytes(b []byte, field int, payload []byte) []byte {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}

func pbPacked(b []byte, field int, vs ...uint64) []byte {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return pbBytes(b, field, p)
}

// syntheticProfile encodes a CPU profile whose samples have the given
// stacks (function names, leaf first) and CPU nanoseconds. Stacks of
// more than two frames use packed location ids, shorter ones unpacked,
// as runtime/pprof does; the first frame of every stack shares its
// location with the second as an inlined call, so multi-line
// locations are covered too.
func syntheticProfile(t *testing.T, stacks [][]string, ns []int64) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	index := map[string]uint64{}
	intern := func(s string) uint64 {
		if i, ok := index[s]; ok {
			return i
		}
		index[s] = uint64(len(strs))
		strs = append(strs, s)
		return index[s]
	}
	var msg []byte
	msg = pbBytes(msg, fProfileSampleType, pbVarint(pbVarint(nil, 1, 1), fValueTypeUnit, 2))
	msg = pbBytes(msg, fProfileSampleType, pbVarint(pbVarint(nil, 1, 3), fValueTypeUnit, 4))
	funcs := map[string]uint64{}
	nextLoc := uint64(1)
	for i, st := range stacks {
		for _, fn := range st {
			if _, ok := funcs[fn]; !ok {
				id := uint64(len(funcs) + 1)
				funcs[fn] = id
				msg = pbBytes(msg, fProfileFunction, pbVarint(pbVarint(nil, fFunctionID, id), fFunctionName, intern(fn)))
			}
		}
		// One location holding the two innermost frames (inlined),
		// then one location per remaining frame.
		var locs []uint64
		for j := 0; j < len(st); {
			loc := pbVarint(nil, fLocationID, nextLoc)
			n := 1
			if j == 0 && len(st) > 1 {
				n = 2
			}
			for _, fn := range st[j : j+n] {
				loc = pbBytes(loc, fLocationLine, pbVarint(nil, fLineFunction, funcs[fn]))
			}
			msg = pbBytes(msg, fProfileLocation, loc)
			locs = append(locs, nextLoc)
			nextLoc++
			j += n
		}
		var s []byte
		if len(locs) > 2 {
			s = pbPacked(s, fSampleLocation, locs...)
		} else {
			for _, l := range locs {
				s = pbVarint(s, fSampleLocation, l)
			}
		}
		s = pbPacked(s, fSampleValue, 1, uint64(ns[i]))
		msg = pbBytes(msg, fProfileSample, s)
	}
	for _, s := range strs {
		msg = pbBytes(msg, fProfileStrings, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSplitProfileAttributesEverySample(t *testing.T) {
	stacks := [][]string{
		{"bagualu/internal/tensor.MatMulTransA.func1", "bagualu/internal/tensor.ParallelRows.func1", "bagualu/internal/tensor.(*pool).worker"},
		{"bagualu/internal/tensor.microKernel2x4", "bagualu/internal/tensor.macroKernel"},
		{"bagualu/internal/tensor.matmulInto.func1", "bagualu/internal/tensor.MatMulNaive"},
		{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "bagualu/internal/tensor.New", "bagualu/internal/nn.(*Linear).Forward"},
		{"bagualu/internal/parallel/pipe.(*Runner).Step"},
		{"bagualu/internal/parallel/layout.Fold"},
		{"bagualu/internal/serve/fleet.Run.func2", "bagualu/internal/serve/fleet.Run"},
		{"bagualu/internal/autograd.(*Tape).Backward"},
		{"math.Exp", "bagualu/internal/half.FromFloat32"},
		{"runtime.futex"},
	}
	ns := []int64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
	sp, err := splitProfile(syntheticProfile(t, stacks, ns))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"tensor": 600, "parallel": 1100, "serve": 700, "runtime": 1400, "other": 1700,
	}
	var sum int64
	for _, l := range layers {
		if sp.LayerNs[l] != want[l] {
			t.Errorf("layer %s: %d ns, want %d", l, sp.LayerNs[l], want[l])
		}
		sum += sp.LayerNs[l]
	}
	if sum != sp.TotalNs || sp.TotalNs != 5500 {
		t.Errorf("layers sum to %d of %d ns, want every sample in a layer (5500)", sum, sp.TotalNs)
	}
	for fam, n := range map[string]int64{"transA": 100, "tiled": 200, "naive": 300} {
		if sp.FamilyNs[fam] != n {
			t.Errorf("family %s: %d ns, want %d", fam, sp.FamilyNs[fam], n)
		}
	}
	if sp.AllocGC != 400 {
		t.Errorf("alloc/GC %d ns, want 400", sp.AllocGC)
	}
	if got := sp.share(sp.FamilyNs["tiled"]); got != 200.0/5500 {
		t.Errorf("tiled share %v", got)
	}
}

func TestSplitProfileRejectsGarbage(t *testing.T) {
	if _, err := splitProfile([]byte("not a profile")); err == nil {
		t.Fatal("want an error for a non-gzip profile")
	}
}
