package ckpt

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// writeRawManifest commits raw as the manifest of step under dir.
func writeRawManifest(t *testing.T, dir string, step int64, raw string) {
	t.Helper()
	sd := StepDir(dir, step)
	if err := os.MkdirAll(sd, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sd, manifestName), []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReadManifestRejects: every manifest the writer could not have
// committed is a *ManifestError, and Restore returns it instead of
// panicking (a zero shard count used to divide by zero) or opening a
// path outside the step directory.
func TestReadManifestRejects(t *testing.T) {
	for _, c := range []struct{ name, raw string }{
		{"not-json", `{"step": 7, "shards":`},
		{"wrong-step", `{"step": 8, "shards": 1, "files": ["shard-0000.bin"]}`},
		{"zero-shards", `{"step": 7, "shards": 0, "files": []}`},
		{"negative-shards", `{"step": 7, "shards": -2, "files": []}`},
		{"too-few-files", `{"step": 7, "shards": 2, "files": ["shard-0000.bin"]}`},
		{"too-many-files", `{"step": 7, "shards": 1, "files": ["shard-0000.bin", "shard-0001.bin"]}`},
		{"parent-escape", `{"step": 7, "shards": 1, "files": ["../step-00000006/shard-0000.bin"]}`},
		{"subdirectory", `{"step": 7, "shards": 1, "files": ["sub/shard-0000.bin"]}`},
		{"absolute", `{"step": 7, "shards": 1, "files": ["/etc/passwd"]}`},
		{"empty-name", `{"step": 7, "shards": 1, "files": [""]}`},
		{"dot", `{"step": 7, "shards": 1, "files": ["."]}`},
		{"dot-dot", `{"step": 7, "shards": 1, "files": [".."]}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			writeRawManifest(t, dir, 7, c.raw)
			var me *ManifestError
			if _, err := ReadManifest(dir, 7); !errors.As(err, &me) {
				t.Fatalf("ReadManifest: got %v, want a *ManifestError", err)
			}
			if _, err := Restore(dir, 7, 3, nil); !errors.As(err, &me) {
				t.Fatalf("Restore: got %v, want a *ManifestError", err)
			}
		})
	}
}

// FuzzReadManifest: no manifest bytes make ReadManifest or Restore
// panic; a rejected manifest is a *ManifestError, and an accepted one
// holds the writer's invariants. The seeds in testdata/fuzz are a
// valid two-shard manifest and the zero-shard one.
func FuzzReadManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		writeRawManifest(t, dir, 7, string(raw))
		m, err := ReadManifest(dir, 7)
		if err != nil {
			var me *ManifestError
			if !errors.As(err, &me) {
				t.Fatalf("rejection is not a *ManifestError: %v", err)
			}
		} else {
			if m.Step != 7 || m.Shards < 1 || len(m.Files) != m.Shards {
				t.Fatalf("accepted inconsistent manifest %+v", m)
			}
			for _, name := range m.Files {
				if name != filepath.Base(name) || name == "." || name == ".." {
					t.Fatalf("accepted shard file %q", name)
				}
			}
		}
		// No shard files exist, so Restore must fail — without
		// panicking, whatever the manifest says.
		if _, err := Restore(dir, 7, -3, nil); err == nil {
			t.Fatal("Restore succeeded with no shard files")
		}
	})
}
