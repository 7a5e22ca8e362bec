package insitu

import (
	"fmt"
	"go/ast"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreachedAllowList names the internal functions no binary reaches
// that may stay anyway, each with its reason. Every other non-test
// function under internal/ is linked into at least one binary.
var unreachedAllowList = map[string]string{
	"staging.Area.CrashBucket":      "fault hook: the crash matrix and the chaos soaks kill a bucket mid-task; no config key crashes one",
	"recovery.KillAt":               "fault hook: the crash matrix builds each cell's kill point; Kill is a json:\"-\" field no config sets",
	"dart.Fabric.SetRetryPolicy":    "fault hook: fault tests shorten the retry backoff; every run keeps the default policy",
	"grid.Field.Marshal":            "reference encoder of the field wire format, which DownsampleForTransit and bp write in place",
	"grid.Field.AppendMarshal":      "reference encoder of the field wire format, which DownsampleForTransit and bp write in place",
	"grid.Field.MarshalSize":        "reference encoder of the field wire format, which DownsampleForTransit and bp write in place",
	"stats.Contingency.UpdateBatch": "oracle: core's in-situ tests build the contingency payload the row-wise kernel must match",
	"stats.AutoCorrelator.Push":     "oracle: core's in-situ tests build the auto-correlation payload the in-place ring must match",
	"netsim.Network.Faults":         "registry's tests read the injector Build installed; no run reads it back",
	"codec.Registry.Bases":          "core's run test reads that the base store is empty after Run; no run reads it back",
}

// TestEveryInternalFunctionIsReached: a function no binary links is
// code only tests run, so it is either a test hook that belongs in a
// _test.go file or a leftover. The linker decides: the test builds every
// main package under cmd/ and examples/ and the benchmark module, with
// inlining off in this module so small functions keep their symbols,
// and reads their text symbols with `go tool nm`. It fails on any
// non-test function or method under internal/ (generic instantiations
// folded onto their declaration) that is in no binary, unless it is a
// String or Error method or unreachedAllowList names it; an allow-list
// entry that a binary now reaches, or that no longer exists, fails too.
func TestEveryInternalFunctionIsReached(t *testing.T) {
	t.Parallel()
	reached := map[string]bool{}
	for _, bin := range buildBinaries(t) {
		out, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", bin, err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			f := strings.Fields(line)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				if key := symbolKey(f[2]); key != "" {
					reached[key] = true
				}
			}
		}
	}

	declared := map[string]string{} // key -> file:line
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			continue
		}
		fset, files, err := parseSources(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			for _, decl := range file.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || d.Name.Name == "init" || d.Name.Name == "_" {
					continue
				}
				key := filepath.Base(dir) + "."
				if d.Recv != nil {
					// fmt and errors reach String and Error through
					// interfaces a binary may never exercise: they stay
					// by rule.
					if d.Name.Name == "String" || d.Name.Name == "Error" {
						continue
					}
					key += receiverName(d.Recv.List[0].Type) + "."
				}
				key += d.Name.Name
				p := fset.Position(d.Pos())
				declared[key] = fmt.Sprintf("%s:%d", filepath.Join(dir, filepath.Base(p.Filename)), p.Line)
			}
		}
	}

	var unreached []string
	linked := 0
	for key, pos := range declared {
		if reached[key] {
			linked++
			continue
		}
		if _, ok := unreachedAllowList[key]; !ok {
			unreached = append(unreached, pos+": "+key)
		}
	}
	sort.Strings(unreached)
	t.Logf("%d internal functions, %d linked into a binary; allow-list of %d",
		len(declared), linked, len(unreachedAllowList))
	if len(unreached) > 0 {
		t.Errorf("%d internal functions are linked into no binary (delete them, move them into a _test.go file, or allow-list them with a reason):\n  %s",
			len(unreached), strings.Join(unreached, "\n  "))
	}
	for key, reason := range unreachedAllowList {
		switch {
		case declared[key] == "":
			t.Errorf("allow-listed function %s is not declared under internal/", key)
		case reached[key]:
			t.Errorf("allow-listed function %s is linked into a binary; drop it from the allow-list (%s)", key, reason)
		}
	}
}

// buildBinaries builds every main package under cmd/ and examples/ and
// the benchmark module (its own Go module, built from its directory)
// into a temporary directory, with inlining off for this module's
// packages, and returns the binaries' paths.
func buildBinaries(t *testing.T) []string {
	t.Helper()
	out := t.TempDir()
	type target struct{ dir, pkg string }
	targets := []target{{dir: "benchmark", pkg: "."}}
	for _, pattern := range []string{"cmd/*/main.go", "examples/*/main.go"} {
		mains, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mains {
			targets = append(targets, target{dir: ".", pkg: "./" + filepath.Dir(m)})
		}
	}
	var bins []string
	for i, tg := range targets {
		bin := filepath.Join(out, fmt.Sprint(i))
		cmd := exec.Command("go", "build", "-gcflags=insitu/...=-l", "-o", bin, tg.pkg)
		cmd.Dir = tg.dir
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s in %s: %v\n%s", tg.pkg, tg.dir, err, msg)
		}
		bins = append(bins, bin)
	}
	return bins
}

// symbolKey maps a linker text symbol of this module's internal
// packages to the "pkg.Func" or "pkg.Recv.Method" key of its
// declaration, and any other symbol to "": type arguments in brackets
// are dropped and a pointer receiver's "(*T)" is spelled T. A
// closure's symbol ("pkg.Func.func1") maps past its declaration, which
// the enclosing function's own symbol already names.
func symbolKey(sym string) string {
	rest, ok := strings.CutPrefix(sym, "insitu/internal/")
	if !ok {
		return ""
	}
	var b strings.Builder
	depth := 0
	for _, r := range rest {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0 && r != '(' && r != ')' && r != '*':
			b.WriteRune(r)
		}
	}
	return b.String()
}
