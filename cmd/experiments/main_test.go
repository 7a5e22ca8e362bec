package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"
)

// TestTable1PrintsThePostProcessingRow: -table1 at one step, the
// fewest that still checkpoint, prints both columns with the
// post-processing row beside the coupled analysis time, and leaves
// nothing behind in -outdir.
func TestTable1PrintsThePostProcessingRow(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil { // the configs load from the repository root
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	outdir := t.TempDir()
	var stdout, stderr bytes.Buffer
	start := time.Now()
	if code := run([]string{"-table1", "-steps", "1", "-outdir", outdir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	t.Logf("-table1 -steps 1 took %v", time.Since(start).Round(time.Millisecond))
	out := stdout.String()
	for _, want := range []string{"Table I", "4896 [scaled: 32 ranks]", "9440 [scaled: 64 ranks]", "Analysis, coupled (sec./step)", "Post-processing (sec.)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if left, err := os.ReadDir(outdir); err != nil || len(left) != 0 {
		t.Fatalf("-outdir holds %v after the run (%v)", left, err)
	}
}

// TestUsageErrors: no selection and an unknown flag exit 2.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{nil, {"-nosuch"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "-table1") {
			t.Errorf("%v: exit %d, stderr %q", args, code, stderr.String())
		}
	}
}
