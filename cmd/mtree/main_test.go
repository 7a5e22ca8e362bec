package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"insitu/internal/bp"
	"insitu/internal/grid"
	"insitu/internal/mergetree"
	"insitu/internal/registry"
)

// TestMergeTreeOfRunCheckpoints: mtree over the per-rank checkpoints a
// run with a recovery block writes glues the same maxima as the merge
// tree of the stitched global field.
func TestMergeTreeOfRunCheckpoints(t *testing.T) {
	cfg, err := registry.LoadConfig("../../examples/configs/recovery.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg.Recovery.Dir = dir
	b, err := registry.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	const steps = 4 // the config's checkpoint cadence
	if _, err := b.Run(steps, false); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-00004-r*.bp"))
	if err != nil || len(files) != 4 {
		t.Fatalf("want the 4 ranks' step-4 checkpoints, got %v (%v)", files, err)
	}

	var global grid.Box
	var blocks []*grid.Field
	for _, path := range files {
		f, err := bp.ReadVar(path, "T")
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, f)
		global = global.Union(f.Box)
	}
	stitched := grid.NewField("T", global)
	for _, f := range blocks {
		stitched.Paste(f)
	}
	want := len(mergetree.FromField(stitched, global).Maxima())

	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"-var", "T", "-threshold", "1.2"}, files...), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	m := regexp.MustCompile(`(\d+) maxima`).FindStringSubmatch(stdout.String())
	if m == nil {
		t.Fatalf("no maxima count in output:\n%s", stdout.String())
	}
	if got, _ := strconv.Atoi(m[1]); got != want || want == 0 {
		t.Fatalf("mtree glued %d maxima, the stitched field has %d", got, want)
	}
	if !strings.Contains(stdout.String(), "features above 1.2") {
		t.Fatalf("no feature listing in output:\n%s", stdout.String())
	}
}

// TestErrorsExitNonZero: no input is a usage error, an unreadable file
// a failure, each explained on stderr.
func TestErrorsExitNonZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "usage") {
		t.Fatalf("no input: exit %d, stderr %q", code, stderr.String())
	}
	stderr.Reset()
	missing := filepath.Join(t.TempDir(), "missing.bp")
	if code := run([]string{missing}, &stdout, &stderr); code != 1 || !strings.HasPrefix(stderr.String(), "mtree:") {
		t.Fatalf("missing file: exit %d, stderr %q", code, stderr.String())
	}
}
