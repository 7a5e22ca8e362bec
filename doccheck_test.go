package insitu

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestExportedSymbolsDocumented is the godoc lint over every internal
// package: every exported package-level symbol — function, method on
// an exported receiver, type, or const/var declaration — must carry a
// doc comment. It is the registry's ownership/lifecycle contract made
// enforceable: an analysis or config knob nobody documented is one
// nobody can select from a pipeline config. A new package joins the
// lint by existing.
func TestExportedSymbolsDocumented(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			continue
		}
		missing, err := undocumented(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range missing {
			t.Error(m)
		}
	}
}

// undocumented parses one package directory (test files skipped) and
// returns a sorted list of "file:line: symbol" strings for exported
// symbols without a doc comment.
func undocumented(dir string) ([]string, error) {
	fset, files, err := parseSources(dir)
	if err != nil {
		return nil, err
	}
	var missing []string
	report := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: undocumented exported %s",
			filepath.Join(dir, filepath.Base(p.Filename)), p.Line, what))
	}
	for _, file := range files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				checkFunc(d, report)
			case *ast.GenDecl:
				checkGen(d, report)
			}
		}
	}
	sort.Strings(missing)
	return missing, nil
}

// parseSources parses the non-test Go files of one package directory,
// with their comments.
func parseSources(dir string) (*token.FileSet, []*ast.File, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			files = append(files, file)
		}
	}
	return fset, files, nil
}

// checkFunc flags exported functions and exported methods on exported
// receivers that carry no doc comment.
func checkFunc(d *ast.FuncDecl, report func(token.Pos, string)) {
	if !d.Name.IsExported() || d.Doc != nil {
		return
	}
	kind := "function " + d.Name.Name
	if d.Recv != nil && len(d.Recv.List) == 1 {
		recv := receiverName(d.Recv.List[0].Type)
		if recv == "" || !ast.IsExported(recv) {
			return // method on an unexported type: not part of the API
		}
		kind = fmt.Sprintf("method %s.%s", recv, d.Name.Name)
	}
	report(d.Pos(), kind)
}

// checkGen flags exported types, consts, and vars. A doc comment on
// the enclosing declaration group covers every spec inside it, and a
// per-spec comment covers that spec alone — the same rule godoc uses.
func checkGen(d *ast.GenDecl, report func(token.Pos, string)) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
				report(s.Pos(), "type "+s.Name.Name)
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					report(name.Pos(), "const/var "+name.Name)
				}
			}
		}
	}
}

// receiverName unwraps a method receiver type expression to its named
// type, tolerating pointers and generic instantiations.
func receiverName(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return receiverName(t.X)
	case *ast.IndexExpr:
		return receiverName(t.X)
	case *ast.IndexListExpr:
		return receiverName(t.X)
	}
	return ""
}
