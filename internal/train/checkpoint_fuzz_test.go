package train

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"bagualu/internal/nn"
	"bagualu/internal/tensor"
)

// fuzzParams is the reader-side parameter set of the decoder tests:
// one full tensor and one shard view of a logical [4,6] tensor. The
// seed streams in testdata/fuzz/FuzzLoadIntoCov are written from
// params with these names.
func fuzzParams() map[string]*nn.Param {
	w := nn.NewParam("w", tensor.New(3, 5))
	m := &nn.Param{Name: "adam.m", W: tensor.New(12), FullShape: []int{4, 6}, ShardLo: 12}
	return map[string]*nn.Param{w.Name: w, m.Name: m}
}

// hostileV1Header is a 60-byte version-1 stream whose only tensor
// claims rank 3 with every dimension 0xFFFFFFFF and carries no payload.
func hostileV1Header() []byte {
	var b bytes.Buffer
	for _, v := range []any{uint32(ckptMagic), uint32(1), int64(0), float32(1), uint32(1)} {
		binary.Write(&b, binary.LittleEndian, v)
	}
	writeString(&b, "blocks.0.attn.wq")
	binary.Write(&b, binary.LittleEndian, uint32(3))
	for range 3 {
		binary.Write(&b, binary.LittleEndian, uint32(0xFFFFFFFF))
	}
	return b.Bytes()
}

// overflowingV3Range is a version-3 stream whose record for the owned
// param "w" declares the right shape but a range [2^63, 2^64-1).
func overflowingV3Range() []byte {
	var b bytes.Buffer
	for _, v := range []any{
		uint32(ckptMagic), uint32(3), int64(0), float32(1),
		int32(0), int32(0), int64(0), uint64(0), uint32(1),
	} {
		binary.Write(&b, binary.LittleEndian, v)
	}
	writeString(&b, "w")
	for _, v := range []uint32{2, 3, 5} {
		binary.Write(&b, binary.LittleEndian, v)
	}
	binary.Write(&b, binary.LittleEndian, uint64(1)<<63)
	binary.Write(&b, binary.LittleEndian, ^uint64(0))
	return b.Bytes()
}

// A hostile header must be rejected with a typed error before the
// decoder allocates anything sized by it.
func TestLoadIntoCovRejectsHostileHeader(t *testing.T) {
	if n := len(hostileV1Header()); n != 60 {
		t.Fatalf("hostile v1 stream is %d bytes, want 60", n)
	}
	for name, stream := range map[string][]byte{
		"v1-huge-dims": hostileV1Header(),
		"v3-range":     overflowingV3Range(),
	} {
		for _, byName := range []map[string]*nn.Param{nil, fuzzParams()} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := LoadIntoCov(bytes.NewReader(stream), byName, NewCoverage())
			runtime.ReadMemStats(&after)
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("%s: want *FormatError, got %v", name, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Fatalf("%s: decoder allocated %d bytes rejecting the stream", name, grew)
			}
		}
	}
}

// FuzzLoadIntoCov feeds arbitrary bytes to the checkpoint decoder. It
// must return (never panic or exhaust memory), and whatever it accepts
// must restore only ranges inside the logical tensors.
func FuzzLoadIntoCov(f *testing.F) {
	f.Add(hostileV1Header())
	f.Add(overflowingV3Range())
	f.Fuzz(func(t *testing.T, data []byte) {
		byName := fuzzParams()
		cov := NewCoverage()
		if _, err := LoadIntoCov(bytes.NewReader(data), byName, cov); err != nil {
			return
		}
		for name, spans := range cov.spans {
			p := byName[name]
			for _, s := range spans {
				if p == nil || s.lo < 0 || s.hi > p.FullLen() {
					t.Fatalf("accepted range [%d,%d) of %q outside the tensor", s.lo, s.hi, name)
				}
			}
		}
	})
}

// The valid-* seeds of the fuzz corpus (v1, v2 and v3 streams) must
// decode cleanly and restore every byte of the views they cover, so
// the fuzzer starts from streams that reach the copy path.
func TestFuzzCorpusValidStreamsLoad(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzLoadIntoCov/valid-*")
	if err != nil || len(files) != 3 {
		t.Fatalf("want 3 valid seeds, got %v (%v)", files, err)
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSuffix(strings.TrimPrefix(strings.Split(string(raw), "\n")[1], "[]byte("), ")")
		data, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		byName := fuzzParams()
		cov := NewCoverage()
		if _, err := LoadIntoCov(strings.NewReader(data), byName, cov); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if w := byName["w"]; !cov.Covers("w", 0, w.FullLen()) || w.W.Data[4] != 1 {
			t.Fatalf("%s: w not restored (data %v)", file, w.W.Data)
		}
	}
}
