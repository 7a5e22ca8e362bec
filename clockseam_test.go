package insitu

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"testing"
)

// clockSeamFiles are the files whose stages are timed only at a stage
// seam: the rank loop's and the staging bucket's. The clock seam widens
// the scope to every non-test file under internal/.
var clockSeamFiles = []string{
	"internal/core/rank.go",
	"internal/core/pipeline.go",
	"internal/staging/task.go",
	"internal/staging/staging.go",
}

// clockReadAllowList names the functions in clockSeamFiles that may
// read the clock, each with its reason.
var clockReadAllowList = map[string]string{
	"core.rankRun.begin":  "the rank's stage seam: where a stage starts",
	"core.rankRun.end":    "the rank's stage seam: where a stage ends",
	"staging.attempt.now": "the bucket's stage seam: every clock read of a task attempt",
	"core.rankRun.submit": "the StepBudget deadline of the step's tasks, not a stage's timing",
}

// TestStagesReadTheClockOnlyAtTheSeam keeps each stage timed at one
// place, so what a stage feeds is decided once: a time.Now, time.Since
// or time.Until in clockSeamFiles fails unless clockReadAllowList names
// its function. An entry that excuses no read fails too.
func TestStagesReadTheClockOnlyAtTheSeam(t *testing.T) {
	used := map[string]bool{}
	for _, path := range clockSeamFiles {
		reads, err := clockReads(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reads {
			if _, ok := clockReadAllowList[r.fn]; !ok {
				t.Errorf("%s: %s outside the stage seam; time the stage with the seam", r.pos, r.fn)
			}
			used[r.fn] = true
		}
	}
	var stale []string
	for fn := range clockReadAllowList {
		if !used[fn] {
			stale = append(stale, fn)
		}
	}
	sort.Strings(stale)
	for _, fn := range stale {
		t.Errorf("clockReadAllowList: %s reads no clock; drop the entry", fn)
	}
}

type clockRead struct {
	pos string // file:line
	fn  string // pkg.Recv.Func, pkg.Func, or pkg.<top level>
}

// clockReads returns every reference to time.Now, time.Since or
// time.Until in one file, under whatever name it imports package time,
// with the function it sits in.
func clockReads(path string) ([]clockRead, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return nil, err
	}
	timeName := ""
	for _, imp := range file.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
			timeName = "time"
			if imp.Name != nil {
				timeName = imp.Name.Name
			}
		}
	}
	if timeName == "" {
		return nil, nil
	}
	pkg := filepath.Base(filepath.Dir(path))
	var reads []clockRead
	for _, decl := range file.Decls {
		fn := pkg + ".<top level>"
		if d, ok := decl.(*ast.FuncDecl); ok {
			fn = pkg + "." + d.Name.Name
			if d.Recv != nil && len(d.Recv.List) == 1 {
				fn = pkg + "." + receiverName(d.Recv.List[0].Type) + "." + d.Name.Name
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == timeName &&
				(sel.Sel.Name == "Now" || sel.Sel.Name == "Since" || sel.Sel.Name == "Until") {
				p := fset.Position(sel.Pos())
				reads = append(reads, clockRead{pos: fmt.Sprintf("%s:%d", path, p.Line), fn: fn})
			}
			return true
		})
	}
	return reads, nil
}
