// Package goldentest is the shared golden-file helper of the
// metric-pinning suites: a test extracts the metrics it pins into a
// plain struct, and Compare checks the indented-JSON rendering of that
// struct byte-for-byte against a committed testdata file. Running the
// suite with -update (see scripts/update_goldens.sh) rewrites the
// files from the current engine output instead of comparing — the
// refresh workflow after an intentional metrics change.
//
// Byte-exact JSON comparison is deliberate: the simulators guarantee
// bit-identical metrics for a fixed (config, scenario), and
// encoding/json renders float64 values with the shortest
// round-trippable form, so any drift in a pinned metric — even in the
// last ulp of a latency percentile — fails the comparison.
package goldentest

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// update is registered once here and shared by every importing test
// binary: `go test ./internal/serving -update` rewrites that package's
// golden files.
var update = flag.Bool("update", false, "rewrite golden testdata files from current output")

// Compare checks got against the golden file at path (conventionally
// testdata/<name>.golden.json, relative to the test's package
// directory). got is marshalled as indented JSON; the file must match
// byte for byte. With -update the file is (re)written instead and the
// test passes.
func Compare(t *testing.T, path string, got any) {
	t.Helper()
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatalf("goldentest: marshal for %s: %v", path, err)
	}
	data = append(data, '\n')
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("goldentest: %v", err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatalf("goldentest: %v", err)
		}
		t.Logf("goldentest: wrote %s (%d bytes)", path, len(data))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("goldentest: %v (run scripts/update_goldens.sh, or go test -update this package, to create it)", err)
	}
	if !bytes.Equal(want, data) {
		t.Errorf("golden mismatch against %s (rerun with -update after an INTENTIONAL metrics change):\n%s",
			path, diff(want, data))
	}
}

// CompareBytes checks a raw pre-rendered artifact (a Perfetto trace,
// a JSONL event log, a CSV time series) against the golden file at
// path, byte for byte. With -update the file is (re)written instead.
// Use Compare for metric structs — this variant is for exporters whose
// byte format is itself the contract.
func CompareBytes(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("goldentest: %v", err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("goldentest: %v", err)
		}
		t.Logf("goldentest: wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("goldentest: %v (run scripts/update_goldens.sh, or go test -update this package, to create it)", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("golden mismatch against %s (rerun with -update after an INTENTIONAL format change):\n%s",
			path, diff(want, got))
	}
}

// diff renders a compact line-level got/want comparison: the full
// payloads are small (pinned metric rows), so showing the first
// diverging line with context beats shipping a diff dependency.
func diff(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			return fmt.Sprintf("first difference at line %d:\n  golden: %s\n  got:    %s", i+1, w, g)
		}
	}
	return "contents equal but lengths differ"
}
