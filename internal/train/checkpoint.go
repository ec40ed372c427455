package train

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"bagualu/internal/nn"
)

// Checkpoint format: a little-endian binary stream of named tensors.
// BaGuaLu checkpoints 174T parameters by having each rank write its
// own expert shard; the same property holds here because Save takes
// whatever parameter list the caller owns (a rank passes only its
// local params).
//
// Version 2 makes the stream sufficient for *bit-exact* resume: the
// header carries the dynamic loss-scale state, the optimizer update
// count (Adam/LAMB bias correction depends on it), and the data-order
// RNG position, while the tensor list includes optimizer moments and
// FP32 masters (see Trainer.CheckpointParams). Every tensor record
// ends with a CRC32 of its payload so silent corruption is detected
// at load time and attributed to a specific tensor.
//
// Version 3 makes every record a *range* of a logical tensor: after
// the full shape it carries [lo, hi) flat offsets and only hi-lo
// payload floats. Full tensors write lo=0, hi=N. This is what lets a
// ZeRO-sharded optimizer checkpoint restore across layouts — each
// rank writes its moment shard as a range record under the same name
// the unsharded optimizer uses, and restore assembles whatever ranges
// the streams provide into whatever views the reader owns (Coverage
// tracks completeness). Version 1 (weights only, no checksums) and
// version 2 streams remain readable.
const (
	ckptMagic   = 0xBA60A1 // "BaGuaLu"
	ckptVersion = 3
)

// Header carries run metadata stored alongside the weights.
type Header struct {
	Step      int64
	LossScale float32

	// Version 2 fields (zero when reading a version 1 stream).
	GoodSteps    int32  // loss-scale growth progress
	SkippedSteps int32  // overflow-skipped step count
	OptSteps     int64  // optimizer updates applied (bias correction)
	RNGState     uint64 // data-order RNG position

	// Version is the format version the stream was read with; it is
	// ignored by Save (which always writes the current version).
	Version int
}

// CorruptError reports a tensor record whose payload checksum does
// not match, naming the damaged tensor.
type CorruptError struct {
	Tensor    string
	Want, Got uint32
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("train: checkpoint tensor %q corrupted (crc %08x, want %08x)", e.Tensor, e.Got, e.Want)
}

// maxCkptRank bounds the tensor rank a stream may declare; model
// tensors are at most rank 3.
const maxCkptRank = 8

// FormatError reports a tensor record whose header cannot describe a
// real tensor (a rank above maxCkptRank, an element count that
// overflows int, a range outside the tensor) or whose element count
// disagrees with the param it would restore.
type FormatError struct {
	Tensor string
	Reason string
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("train: checkpoint tensor %q malformed: %s", e.Tensor, e.Reason)
}

// readPayload reads n little-endian float32s from r in bounded chunks
// and returns their CRC32 (tensorCRC of the values). When dst is
// non-nil (len n) the values are decoded into it.
func readPayload(r io.Reader, n int, dst []float32) (uint32, error) {
	h := crc32.NewIEEE()
	var chunk [16 << 10]byte
	for done := 0; done < n; {
		c := min(n-done, len(chunk)/4)
		b := chunk[:4*c]
		if _, err := io.ReadFull(r, b); err != nil {
			return 0, err
		}
		h.Write(b)
		if dst != nil {
			for i := range c {
				dst[done+i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
			}
		}
		done += c
	}
	return h.Sum32(), nil
}

// Save writes a version-3 checkpoint of params to w. A param whose
// FullShape is set is written as a range record [ShardLo,
// ShardLo+len) of the logical tensor; ordinary params cover their
// whole tensor.
func Save(w io.Writer, hdr Header, params []*nn.Param) error {
	bw := bufio.NewWriter(w)
	for _, v := range []any{
		uint32(ckptMagic), uint32(ckptVersion),
		hdr.Step, hdr.LossScale,
		hdr.GoodSteps, hdr.SkippedSteps, hdr.OptSteps, hdr.RNGState,
		uint32(len(params)),
	} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, p := range params {
		shape := p.W.Shape
		if p.FullShape != nil {
			shape = p.FullShape
		}
		lo := p.ShardLo
		hi := lo + len(p.W.Data)
		if lo < 0 || hi > p.FullLen() {
			return fmt.Errorf("train: param %q shard [%d,%d) exceeds full length %d", p.Name, lo, hi, p.FullLen())
		}
		if err := writeString(bw, p.Name); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(shape))); err != nil {
			return err
		}
		for _, d := range shape {
			if err := binary.Write(bw, binary.LittleEndian, uint32(d)); err != nil {
				return err
			}
		}
		for _, v := range []uint64{uint64(lo), uint64(hi)} {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		if err := binary.Write(bw, binary.LittleEndian, p.W.Data); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, tensorCRC(p.W.Data)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// tensorCRC checksums a tensor payload exactly as it sits on disk
// (little-endian float32 bytes).
func tensorCRC(data []float32) uint32 {
	h := crc32.NewIEEE()
	var b [4]byte
	for _, v := range data {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return h.Sum32()
}

// Coverage accumulates which flat ranges of each named logical tensor
// have been restored, across one or more checkpoint streams. A
// sharded restore unions several shard files' range records into one
// Coverage, then asks whether each local parameter view is fully
// covered.
type Coverage struct {
	spans map[string][]ckptSpan
}

type ckptSpan struct{ lo, hi int }

// NewCoverage returns an empty coverage set.
func NewCoverage() *Coverage { return &Coverage{spans: map[string][]ckptSpan{}} }

func (cv *Coverage) add(name string, lo, hi int) {
	if hi > lo {
		cv.spans[name] = append(cv.spans[name], ckptSpan{lo, hi})
	}
}

// Covers reports whether [lo, hi) of the named tensor has been fully
// restored (hi <= lo trivially holds).
func (cv *Coverage) Covers(name string, lo, hi int) bool {
	if hi <= lo {
		return true
	}
	spans := append([]ckptSpan(nil), cv.spans[name]...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	at := lo
	for _, s := range spans {
		if s.lo > at {
			break
		}
		if s.hi > at {
			at = s.hi
		}
		if at >= hi {
			return true
		}
	}
	return at >= hi
}

// LoadIntoCov restores a checkpoint stream into the given name-indexed
// parameter set, recording every restored range in cov. Each record
// covers a flat range [lo, hi) of its logical tensor (full tensors in
// v1/v2 streams cover everything); the overlap of that range with each
// destination param's own view ([ShardLo, ShardLo+len)) is copied, so
// sharded streams restore into unsharded params and vice versa.
// Tensors absent from byName are skipped (checksums still verified);
// params absent from the stream are left untouched.
func LoadIntoCov(r io.Reader, byName map[string]*nn.Param, cov *Coverage) (Header, error) {
	br := bufio.NewReader(r)
	var hdr Header
	var magic, version uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return hdr, err
	}
	if magic != ckptMagic {
		return hdr, fmt.Errorf("train: bad checkpoint magic %#x", magic)
	}
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return hdr, err
	}
	if version < 1 || version > ckptVersion {
		return hdr, fmt.Errorf("train: unsupported checkpoint version %d", version)
	}
	hdr.Version = int(version)
	fields := []any{&hdr.Step, &hdr.LossScale}
	if version >= 2 {
		fields = append(fields, &hdr.GoodSteps, &hdr.SkippedSteps, &hdr.OptSteps, &hdr.RNGState)
	}
	for _, f := range fields {
		if err := binary.Read(br, binary.LittleEndian, f); err != nil {
			return hdr, err
		}
	}
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return hdr, err
	}
	for i := uint32(0); i < count; i++ {
		name, err := readString(br)
		if err != nil {
			return hdr, err
		}
		var rank uint32
		if err := binary.Read(br, binary.LittleEndian, &rank); err != nil {
			return hdr, err
		}
		if rank > maxCkptRank {
			return hdr, &FormatError{Tensor: name, Reason: fmt.Sprintf("rank %d exceeds %d", rank, maxCkptRank)}
		}
		full := 1
		for j := uint32(0); j < rank; j++ {
			var d uint32
			if err := binary.Read(br, binary.LittleEndian, &d); err != nil {
				return hdr, err
			}
			if d != 0 && full > math.MaxInt/int(d) {
				return hdr, &FormatError{Tensor: name, Reason: "element count overflows"}
			}
			full *= int(d)
		}
		lo, hi := 0, full
		if version >= 3 {
			var l, h uint64
			for _, f := range []*uint64{&l, &h} {
				if err := binary.Read(br, binary.LittleEndian, f); err != nil {
					return hdr, err
				}
			}
			if l > h || h > uint64(full) {
				return hdr, &FormatError{Tensor: name, Reason: fmt.Sprintf("range [%d,%d) of %d", l, h, full)}
			}
			lo, hi = int(l), int(h)
		}
		// Only a record this reader owns is staged, and only once its
		// length matches the param; any other record is checksummed in
		// bounded chunks, so a hostile header costs no allocation.
		p := byName[name]
		var buf []float32
		if p != nil {
			if p.FullLen() != full {
				return hdr, &FormatError{Tensor: name, Reason: fmt.Sprintf("%d elements, param has %d", full, p.FullLen())}
			}
			buf = make([]float32, hi-lo)
		}
		crc, err := readPayload(br, hi-lo, buf)
		if err != nil {
			return hdr, err
		}
		if version >= 2 {
			var want uint32
			if err := binary.Read(br, binary.LittleEndian, &want); err != nil {
				return hdr, err
			}
			if crc != want {
				return hdr, &CorruptError{Tensor: name, Want: want, Got: crc}
			}
		}
		if p == nil {
			continue // tensor not owned by this rank
		}
		// Copy the overlap of the record range with this param's view.
		vLo, vHi := p.ShardLo, p.ShardLo+len(p.W.Data)
		oLo, oHi := max(lo, vLo), min(hi, vHi)
		if oLo < oHi {
			copy(p.W.Data[oLo-vLo:oHi-vLo], buf[oLo-lo:oHi-lo])
		}
		if cov != nil {
			cov.add(name, lo, hi)
		}
	}
	return hdr, nil
}

// LoadInto restores a checkpoint stream into the given name-indexed
// parameter set. It returns the header and the names whose local view
// was fully covered by this stream alone — callers decide which
// absences are errors (a sharded restore unions several streams via
// LoadIntoCov before checking completeness; see internal/ckpt).
func LoadInto(r io.Reader, byName map[string]*nn.Param) (Header, []string, error) {
	cov := NewCoverage()
	hdr, err := LoadIntoCov(r, byName, cov)
	if err != nil {
		return hdr, nil, err
	}
	var loaded []string
	for name, p := range byName {
		if cov.Covers(name, p.ShardLo, p.ShardLo+len(p.W.Data)) {
			loaded = append(loaded, name)
		}
	}
	return hdr, loaded, nil
}

// Load restores a checkpoint into params, matching tensors by name.
// Every parameter's view must be fully covered by the stream; extra
// tensors in the stream are ignored.
func Load(r io.Reader, params []*nn.Param) (Header, error) {
	byName := make(map[string]*nn.Param, len(params))
	for _, p := range params {
		byName[p.Name] = p
	}
	cov := NewCoverage()
	hdr, err := LoadIntoCov(r, byName, cov)
	if err != nil {
		return hdr, err
	}
	for _, p := range params {
		if !cov.Covers(p.Name, p.ShardLo, p.ShardLo+len(p.W.Data)) {
			return hdr, fmt.Errorf("train: checkpoint missing tensor %q", p.Name)
		}
	}
	return hdr, nil
}

// SaveFile writes a checkpoint to path atomically: the stream goes to
// a temp file in the same directory and is renamed over path only
// after a successful flush, so a crash mid-write can never destroy
// the previous checkpoint.
func SaveFile(path string, hdr Header, params []*nn.Param) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := Save(f, hdr, params); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile restores a checkpoint from path.
func LoadFile(path string, params []*nn.Param) (Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, err
	}
	defer f.Close()
	return Load(f, params)
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := w.Write([]byte(s))
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("train: unreasonable name length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
