package insitu

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// singleValueAllowList names the Go options with one value in use that
// may stay anyway, each with its reason. An entry names a field
// ("pkg.Type.Field") or a whole type ("pkg.Type").
var singleValueAllowList = map[string]string{
	"dart.RetryPolicy":         "fault hook: fault tests shorten the retry backoff through Fabric.SetRetryPolicy; every run keeps the default policy",
	"faults.Config":            "the fault model the chaos soaks and fault tests drive: rates, partitions and corruption that no config key sets",
	"netsim.Config":            "the gemini profile's path thresholds; fabric.net.profile picks that profile or the zero one, where every message takes one free path",
	"netsim.Config.SharedLink": "only the netsim and streaming tests serialize the sleeps; it goes with TimeScale when the clock is modeled (ROADMAP item 5)",
	"core.RecoveryConfig.Kill": "fault hook: the crash matrix builds each cell's kill point; no config kills a run",
}

// TestEveryGoOptionIsSet: a Go option is a dimension every test and
// benchmark must cover, so a field that only its own package's default
// fills with a constant, or that only a test sets, is a constant under
// another name. The test type-checks every package of this module and
// of the benchmark module from source and scopes the exported fields of
// exported struct types named *Config, *Options or *Policy in non-test
// files under internal/; a field with a JSON key belongs to
// TestEveryConfigKeyIsSetByACommittedConfig, and json:"-" is not a key.
// Analysis structs such as core.VizHybrid carry option-like fields too
// but are out of scope: their names do not say they are options, so
// they are audited by hand. A field passes when non-test code under
// cmd/, examples/, internal/ or benchmark/ writes it, as a keyed
// composite-literal element or by assignment, from another package or
// with an expression that is not a constant. Every other field fails
// unless singleValueAllowList names it or its type; an allow-list entry
// that names nothing in scope, or whose fields all pass, fails too.
func TestEveryGoOptionIsSet(t *testing.T) {
	fset := token.NewFileSet()
	ld := &sourceLoader{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  map[string]*loadedPackage{},
		types: map[string]*types.Package{},
	}
	for _, root := range []string{"cmd", "examples", "internal", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if matches, _ := filepath.Glob(filepath.Join(path, "*.go")); len(matches) > 0 {
				_, err = ld.load(path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// The options in scope.
	type option struct {
		key, pos string
		passed   bool
	}
	options := map[*types.Var]*option{}
	inScope := map[string]bool{} // allow-list keys that name an option or its type
	for _, lp := range ld.pkgs {
		if !strings.HasPrefix(lp.dir, "internal"+string(filepath.Separator)) {
			continue
		}
		scope := lp.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() ||
				!(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Policy")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			typeKey := lp.pkg.Name() + "." + name
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || f.Embedded() {
					continue
				}
				if key, _, _ := strings.Cut(reflect.StructTag(st.Tag(i)).Get("json"), ","); key != "" && key != "-" {
					continue
				}
				inScope[typeKey] = true
				o := &option{key: typeKey + "." + f.Name(), pos: fset.Position(f.Pos()).String()}
				inScope[o.key] = true
				options[f] = o
			}
		}
	}

	// The writes.
	for _, lp := range ld.pkgs {
		write := func(field types.Object, value ast.Expr) {
			f, ok := field.(*types.Var)
			if !ok {
				return
			}
			o := options[f]
			if o == nil || o.passed {
				return
			}
			if f.Pkg() != lp.pkg || value == nil { // value is nil for x.F op= v
				o.passed = true
				return
			}
			if tv := lp.info.Types[value]; tv.Value == nil && !tv.IsNil() {
				o.passed = true
			}
		}
		for _, file := range lp.files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					// A struct literal's key resolves to its field.
					if id, ok := n.Key.(*ast.Ident); ok {
						write(lp.info.Uses[id], n.Value)
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
						if !ok {
							continue
						}
						s := lp.info.Selections[sel]
						if s == nil || s.Kind() != types.FieldVal {
							continue
						}
						var value ast.Expr
						if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
							value = n.Rhs[i]
						}
						write(s.Obj(), value)
					}
				}
				return true
			})
		}
	}

	var failing []string
	allowed := map[string]bool{} // allow-list keys that excuse a failing option
	passed := 0
	for _, o := range options {
		if o.passed {
			passed++
			continue
		}
		typeKey := o.key[:strings.LastIndex(o.key, ".")]
		switch {
		case singleValueAllowList[o.key] != "":
			allowed[o.key] = true
		case singleValueAllowList[typeKey] != "":
			allowed[typeKey] = true
		default:
			failing = append(failing, o.pos+": "+o.key)
		}
	}
	sort.Strings(failing)
	t.Logf("%d packages type-checked; %d Go options in scope, %d set with a second value; allow-list of %d",
		len(ld.pkgs), len(options), passed, len(singleValueAllowList))
	if len(failing) > 0 {
		t.Errorf("%d Go options have one value in use: only their own package's defaults set them with a constant, or only tests set them (fold each into a constant, or allow-list it with a reason):\n  %s",
			len(failing), strings.Join(failing, "\n  "))
	}
	for key, reason := range singleValueAllowList {
		switch {
		case !inScope[key]:
			t.Errorf("allow-listed option %s is not an exported field or type of an internal *Config, *Options or *Policy struct", key)
		case !allowed[key]:
			t.Errorf("allow-listed option %s has a second value in use; drop it from the allow-list (%s)", key, reason)
		}
	}
}

// loadedPackage is one type-checked package of this module or of the
// benchmark module: its non-test files and what go/types found in them.
type loadedPackage struct {
	dir   string
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// sourceLoader type-checks this module's packages (and the benchmark
// module, which replaces insitu with this directory) from source in
// dependency order, and the standard library through std.
type sourceLoader struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*loadedPackage // by directory
	types map[string]*types.Package // by import path
}

// Import resolves insitu/... to a directory of this repository and any
// other path to the standard library.
func (ld *sourceLoader) Import(path string) (*types.Package, error) {
	if path == "insitu" || strings.HasPrefix(path, "insitu/") {
		lp, err := ld.load(filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, "insitu"), "/")))
		if err != nil {
			return nil, err
		}
		return lp.pkg, nil
	}
	if p := ld.types[path]; p != nil {
		return p, nil
	}
	p, err := ld.std.Import(path)
	if err != nil {
		return nil, err
	}
	ld.types[path] = p
	return p, nil
}

// load parses and type-checks the non-test files of one directory.
func (ld *sourceLoader) load(dir string) (*loadedPackage, error) {
	if lp := ld.pkgs[dir]; lp != nil {
		return lp, nil
	}
	parsed, err := parser.ParseDir(ld.fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	if len(parsed) != 1 {
		return nil, fmt.Errorf("%s: %d packages in one directory", dir, len(parsed))
	}
	lp := &loadedPackage{dir: dir, info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, p := range parsed {
		names := make([]string, 0, len(p.Files))
		for name := range p.Files {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			lp.files = append(lp.files, p.Files[name])
		}
	}
	conf := types.Config{Importer: ld}
	lp.pkg, err = conf.Check("insitu/"+filepath.ToSlash(dir), ld.fset, lp.files, lp.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %v", dir, err)
	}
	ld.pkgs[dir] = lp
	return lp, nil
}
