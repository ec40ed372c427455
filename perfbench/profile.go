package main

// CPU-profile attribution for the traced run: decode the gzipped
// pprof protobuf that runtime/pprof writes, and split its CPU time by
// layer (the bagualu/internal/<layer> package of the sample's leaf
// frame) and by kernel family. Only the handful of profile.proto
// fields the attribution needs are decoded.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the attribution buckets, in report order. Every sample
// lands in exactly one of them.
var layers = []string{"tensor", "nn", "moe", "mpi", "parallel", "train", "serve", "data", "half", "runtime", "other"}

// Kernel families, matched against the leaf frame's function name
// (closures such as MatMulTransA.func1 match their parent's prefix).
var kernelFamilies = map[string][]string{
	"transA": {"bagualu/internal/tensor.MatMulTransA", "bagualu/internal/tensor.GroupedMatMulTransAInto"},
	"tiled": {
		"bagualu/internal/tensor.microKernel2x4", "bagualu/internal/tensor.macroKernel",
		"bagualu/internal/tensor.packB", "bagualu/internal/tensor.matmulTiledInto",
		"bagualu/internal/tensor.matmulTransBTiledInto", "bagualu/internal/tensor.groupedTiled",
	},
	"naive": {"bagualu/internal/tensor.matmulInto", "bagualu/internal/tensor.MatMulNaive", "bagualu/internal/tensor.MatMulTransBNaive"},
}

// allocGCRoots are runtime entry points of allocation and garbage
// collection; a sample with any of them on its stack is alloc/GC time.
var allocGCRoots = []string{
	"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.markroot",
}

// profileSplit is the attribution of one CPU profile.
type profileSplit struct {
	TotalNs  int64
	LayerNs  map[string]int64 // self time by layer
	FamilyNs map[string]int64 // self time by kernel family
	AllocGC  int64            // samples with allocation or GC on the stack
}

// add accumulates another region's split into p.
func (p *profileSplit) add(o profileSplit) {
	if p.LayerNs == nil {
		p.LayerNs, p.FamilyNs = map[string]int64{}, map[string]int64{}
	}
	p.TotalNs += o.TotalNs
	p.AllocGC += o.AllocGC
	for k, v := range o.LayerNs {
		p.LayerNs[k] += v
	}
	for k, v := range o.FamilyNs {
		p.FamilyNs[k] += v
	}
}

// share returns ns as a fraction of the profile's total.
func (p profileSplit) share(ns int64) float64 {
	if p.TotalNs == 0 {
		return 0
	}
	return float64(ns) / float64(p.TotalNs)
}

// layerOf maps a fully qualified function name to its layer: the
// top-level package under bagualu/internal, so parallel/pipe and
// parallel/layout fold into parallel and serve/fleet into serve.
// Packages outside the named layers (autograd, metrics, the standard
// library, ...) land in other.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "runtime.") {
		return "runtime"
	}
	rest, ok := strings.CutPrefix(fn, "bagualu/internal/")
	if !ok {
		return "other"
	}
	top := rest[:strings.IndexAny(rest+".", "./")]
	for _, l := range layers {
		if l == top {
			return l
		}
	}
	return "other"
}

// familyOf returns the kernel family of a leaf function, or "".
func familyOf(fn string) string {
	for fam, prefixes := range kernelFamilies {
		for _, p := range prefixes {
			if fn == p || strings.HasPrefix(fn, p+".") {
				return fam
			}
		}
	}
	return ""
}

// splitProfile attributes a gzipped pprof CPU profile.
func splitProfile(gz []byte) (profileSplit, error) {
	split := profileSplit{LayerNs: map[string]int64{}, FamilyNs: map[string]int64{}}
	p, err := decodeProfile(gz)
	if err != nil {
		return split, err
	}
	for _, s := range p.samples {
		ns := s.value
		split.TotalNs += ns
		stack := p.stack(s.locs)
		leaf := ""
		if len(stack) > 0 {
			leaf = stack[0]
		}
		split.LayerNs[layerOf(leaf)] += ns
		if fam := familyOf(leaf); fam != "" {
			split.FamilyNs[fam] += ns
		}
		if onStack(stack, allocGCRoots) {
			split.AllocGC += ns
		}
	}
	return split, nil
}

func onStack(stack, roots []string) bool {
	for _, fn := range stack {
		for _, r := range roots {
			if fn == r {
				return true
			}
		}
	}
	return false
}

// profile is the decoded subset of profile.proto.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, leaf (innermost inline) first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type sample struct {
	locs  []uint64
	value int64 // CPU nanoseconds
}

// stack returns the function names of a sample, leaf first.
func (p *profile) stack(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, f := range p.locations[l] {
			if i := p.functions[f]; i >= 0 && int(i) < len(p.strings) {
				out = append(out, p.strings[i])
			}
		}
	}
	return out
}

// Field numbers from profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6
	fSampleLocation    = 1
	fSampleValue       = 2
	fValueTypeUnit     = 2
	fLocationID        = 1
	fLocationLine      = 4
	fLineFunction      = 1
	fFunctionID        = 1
	fFunctionName      = 2
)

func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	var units []int64 // sample_type unit string indexes
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var raws []rawSample
	err = walk(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case fProfileSampleType:
			return walk(b, func(f int, v uint64, _ []byte) error {
				if f == fValueTypeUnit {
					units = append(units, int64(v))
				}
				return nil
			})
		case fProfileSample:
			var s rawSample
			err := walk(b, func(f int, v uint64, bb []byte) error {
				switch f {
				case fSampleLocation:
					s.locs = appendVarints(s.locs, v, bb)
				case fSampleValue:
					for _, u := range appendVarints(nil, v, bb) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := walk(b, func(f int, v uint64, bb []byte) error {
				switch f {
				case fLocationID:
					id = v
				case fLocationLine:
					return walk(bb, func(lf int, lv uint64, _ []byte) error {
						if lf == fLineFunction {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			name := int64(-1)
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fProfileStrings:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Use the value whose unit is nanoseconds (the cpu column).
	col := -1
	for i, u := range units {
		if int(u) < len(p.strings) && p.strings[u] == "nanoseconds" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile: no nanoseconds sample column")
	}
	for _, s := range raws {
		if col < len(s.values) {
			p.samples = append(p.samples, sample{locs: s.locs, value: s.values[col]})
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field that arrived either
// unpacked (v) or packed (b non-nil).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// walk calls fn for every field of a protobuf message: varint fields
// with (v, nil), length-delimited ones with (0, bytes). Fixed-width
// fields are skipped.
func walk(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}
