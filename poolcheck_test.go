package insitu

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestNoSyncPool keeps the process to one recycling mechanism: no
// non-test code under internal/ names sync.Pool. A sync.Pool empties
// itself over two collections (and, under -race, drops Puts at random),
// so a run's allocation would swing with how many collections fell
// inside it; idle buffers, framebuffers, halo slabs and scratches wait
// on a bufpool.List instead, which no collection empties.
func TestNoSyncPool(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			continue
		}
		uses, err := syncPoolUses(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range uses {
			t.Errorf("%s: sync.Pool; recycle through a bufpool.List, which no collection empties", u)
		}
	}
}

// syncPoolUses returns "file:line" for every reference to sync.Pool in
// the non-test files of one package directory, under whatever name the
// file imports package sync.
func syncPoolUses(dir string) ([]string, error) {
	fset, files, err := parseSources(dir)
	if err != nil {
		return nil, err
	}
	var uses []string
	for _, file := range files {
		syncName := ""
		for _, imp := range file.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "sync" {
				syncName = "sync"
				if imp.Name != nil {
					syncName = imp.Name.Name
				}
			}
		}
		if syncName == "" {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Pool" {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == syncName {
				p := fset.Position(sel.Pos())
				uses = append(uses, fmt.Sprintf("%s:%d", filepath.Join(dir, filepath.Base(p.Filename)), p.Line))
			}
			return true
		})
	}
	return uses, nil
}
