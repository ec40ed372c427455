// Package ckpt implements sharded, layout-aware distributed
// checkpointing for the simulated training stack. Every rank writes
// its own shard — BaGuaLu's 174T-parameter checkpoints only work
// because no single node ever sees the whole model — and a manifest
// records the parallel layout so a *different* layout can restore:
// tensors are matched by name across all shards, dense replicas
// deduplicate naturally, and each surviving rank picks up exactly the
// expert tensors its new placement assigns it.
//
// Commit protocol: each shard is written to a temp file and renamed;
// the manifest is written (also temp+rename) only after the LAST
// shard of the step has landed. The manifest rename is therefore the
// single commit point — a crash anywhere mid-checkpoint leaves the
// previous committed checkpoint untouched and the new step invisible
// to Latest. A rank that dies mid-checkpoint simply means its step's
// manifest never appears.
package ckpt

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"bagualu/internal/nn"
	"bagualu/internal/train"
)

// Layout records the parallel configuration a checkpoint was written
// under. Restore does not *need* it to reassemble tensors (matching
// is by name), but tools and sanity checks do, and it documents what
// the shard count means.
type Layout struct {
	WorldSize      int `json:"world_size"`
	DataParallel   int `json:"data_parallel"`
	ExpertParallel int `json:"expert_parallel"`
	Pipeline       int `json:"pipeline,omitempty"` // pipeline stages (0/absent = flat grid)
	Virtual        int `json:"virtual,omitempty"`  // virtual stages per pipeline stage
}

// Manifest is the commit record of one sharded checkpoint.
type Manifest struct {
	Step   int64    `json:"step"`
	Shards int      `json:"shards"`
	Layout Layout   `json:"layout"`
	Files  []string `json:"files"` // shard file names in rank order
}

const manifestName = "MANIFEST.json"

// StepDir returns the directory one checkpoint step lives in.
func StepDir(dir string, step int64) string {
	return filepath.Join(dir, fmt.Sprintf("step-%08d", step))
}

// ShardFile returns the file name of one rank's shard.
func ShardFile(rank int) string {
	return fmt.Sprintf("shard-%04d.bin", rank)
}

// Latest returns the highest step under dir with a committed
// manifest, or -1 if none exists.
func Latest(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return -1, nil
		}
		return -1, err
	}
	best := int64(-1)
	for _, e := range ents {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "step-") {
			continue
		}
		step, err := strconv.ParseInt(strings.TrimPrefix(e.Name(), "step-"), 10, 64)
		if err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, e.Name(), manifestName)); err != nil {
			continue // uncommitted (crashed mid-checkpoint)
		}
		if step > best {
			best = step
		}
	}
	return best, nil
}

// ManifestError reports a MANIFEST.json that does not describe a
// restorable checkpoint of the step it was read for.
type ManifestError struct {
	Step   int64
	Reason string
}

func (e *ManifestError) Error() string {
	return fmt.Sprintf("ckpt: bad manifest for step %d: %s", e.Step, e.Reason)
}

// ReadManifest loads the commit record of one step. A manifest that
// does not decode, or that disagrees with what the writer commits —
// its own step, at least one shard, one file per shard, each a plain
// name inside the step directory — is a *ManifestError.
func ReadManifest(dir string, step int64) (Manifest, error) {
	var m Manifest
	raw, err := os.ReadFile(filepath.Join(StepDir(dir, step), manifestName))
	if err != nil {
		return m, err
	}
	bad := func(format string, args ...any) (Manifest, error) {
		return Manifest{}, &ManifestError{Step: step, Reason: fmt.Sprintf(format, args...)}
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return bad("%v", err)
	}
	switch {
	case m.Step != step:
		return bad("records step %d", m.Step)
	case m.Shards < 1:
		return bad("%d shards", m.Shards)
	case len(m.Files) != m.Shards:
		return bad("%d files for %d shards", len(m.Files), m.Shards)
	}
	for _, name := range m.Files {
		if name != filepath.Base(name) || name == "." || name == ".." {
			return bad("shard file %q is not a plain file name", name)
		}
	}
	return m, nil
}

// writeManifest commits a step: temp file + rename, the single
// atomic commit point of the whole sharded checkpoint.
func writeManifest(dir string, m Manifest) error {
	sd := StepDir(dir, m.Step)
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(sd, manifestName+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(raw); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, filepath.Join(sd, manifestName))
}

// RestoreResult reports what a Restore read.
type RestoreResult struct {
	Header    train.Header
	BytesRead int64 // total shard bytes scanned (drives recovery-time pricing)
	Shards    int
}

// Restore reassembles a rank's state from a committed checkpoint,
// possibly written under a different layout. params is the full set
// of tensors this rank needs under its NEW layout (weights, optimizer
// state, masters); every shard is scanned and tensors are matched by
// name, so expert state finds its new owner no matter which dead or
// re-ranked node wrote it. The returned header is adopted from shard
// (shard mod Shards) — the scalar state (step, scale, RNG position)
// is identical across shards of a consistent checkpoint, and the
// deterministic rule keeps all survivors agreeing.
//
// An error is returned if any required tensor is missing or any
// scanned record is corrupt.
func Restore(dir string, step int64, shard int, params []*nn.Param) (RestoreResult, error) {
	var res RestoreResult
	m, err := ReadManifest(dir, step)
	if err != nil {
		return res, err
	}
	res.Shards = m.Shards
	byName := make(map[string]*nn.Param, len(params))
	for _, p := range params {
		byName[p.Name] = p
	}
	adopt := ((shard % m.Shards) + m.Shards) % m.Shards
	cov := train.NewCoverage()
	for i, name := range m.Files {
		path := filepath.Join(StepDir(dir, step), name)
		f, err := os.Open(path)
		if err != nil {
			return res, fmt.Errorf("ckpt: committed checkpoint missing shard: %w", err)
		}
		hdr, err := train.LoadIntoCov(f, byName, cov)
		if st, serr := f.Stat(); serr == nil {
			res.BytesRead += st.Size()
		}
		f.Close()
		if err != nil {
			return res, fmt.Errorf("ckpt: shard %s: %w", name, err)
		}
		if i == adopt {
			res.Header = hdr
		}
	}
	// Completeness is per flat range, not per name: a ZeRO checkpoint
	// holds each optimizer moment as range records scattered across
	// shard files, and a restoring rank may itself own only a view.
	for _, p := range params {
		if !cov.Covers(p.Name, p.ShardLo, p.ShardLo+p.W.Len()) {
			return res, fmt.Errorf("ckpt: tensor %q range [%d,%d) not covered by any shard of step %d",
				p.Name, p.ShardLo, p.ShardLo+p.W.Len(), step)
		}
	}
	return res, nil
}

// Steps lists the committed steps under dir, ascending.
func Steps(dir string) ([]int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []int64
	for _, e := range ents {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "step-") {
			continue
		}
		step, err := strconv.ParseInt(strings.TrimPrefix(e.Name(), "step-"), 10, 64)
		if err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, e.Name(), manifestName)); err == nil {
			out = append(out, step)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
