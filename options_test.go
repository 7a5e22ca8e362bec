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
	"sync"
	"testing"
)

// singleValueAllowList names the Go options with one value in use that
// may stay anyway, each with its reason. An entry names a field
// ("pkg.Type.Field") or a whole type ("pkg.Type").
var singleValueAllowList = map[string]string{
	"dart.RetryPolicy":              "fault hook: fault tests shorten the retry backoff through Fabric.SetRetryPolicy; every run keeps the default policy",
	"faults.Config":                 "the fault model the chaos soaks and fault tests drive: rates, partitions and corruption that no config key sets",
	"netsim.Config":                 "the gemini profile's path thresholds; fabric.net.profile picks that profile or the zero one, where every message takes one free path",
	"core.RecoveryConfig.Kill":      "fault hook: the crash matrix builds each cell's kill point; no config kills a run",
	"workload.ViewerConfig.HotFrac": "benchmark/workload.go passes the default 0.5, and the benchmark module is frozen against its parent's runs; fold it once the benchmark may change",
}

// TestEveryGoOptionIsSet: a Go option is a dimension every test and
// benchmark must cover, so a field that non-test code only ever sets to
// one value is a constant under another name. The test type-checks
// every package of this module and of the benchmark module from source
// and scopes the exported fields of two kinds of exported struct types
// in non-test files under internal/: those named *Config, *Options or
// *Policy, and analysis structs, whose pointer has Name and Every
// methods (core.VizHybrid, ...). A field with a JSON key belongs to
// TestEveryConfigKeyIsSetByACommittedConfig, and json:"-" is not a key.
// A field passes when non-test code under cmd/, examples/, internal/ or
// benchmark/ shows two values for it, whichever package writes them:
// each distinct constant it is written with (a keyed or positional
// composite-literal element, or an assignment) is a value, a
// non-constant write (or ++, or op=) is a second value, and a keyed
// composite literal of its struct that leaves it out writes its zero
// value. Every other field fails unless singleValueAllowList names it
// or its type with a reason; an allow-list entry that names nothing in
// scope, or whose fields all pass, fails too.
func TestEveryGoOptionIsSet(t *testing.T) {
	t.Parallel()
	ld := loadSources(t)

	// The options in scope.
	type option struct {
		key, pos string
		values   map[string]bool // the distinct constant values written
		varies   bool            // a non-constant write
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
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			named := strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Policy")
			if !named && !isAnalysis(tn.Type()) {
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
				o := &option{key: typeKey + "." + f.Name(), pos: ld.fset.Position(f.Pos()).String(), values: map[string]bool{}}
				inScope[o.key] = true
				options[f] = o
			}
		}
	}

	// The writes.
	for _, lp := range ld.pkgs {
		// write records that field is set to value; a nil value is a
		// write that is not one constant (x.F++, x.F op= v).
		write := func(field types.Object, value ast.Expr) {
			f, ok := field.(*types.Var)
			if !ok || options[f] == nil {
				return
			}
			o := options[f]
			if value == nil {
				o.varies = true
				return
			}
			switch tv := lp.info.Types[value]; {
			case tv.Value != nil:
				o.values[tv.Value.ExactString()] = true
			case tv.IsNil():
				o.values["nil"] = true
			default:
				o.varies = true
			}
		}
		for _, file := range lp.files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					tv, ok := lp.info.Types[n]
					if !ok {
						return true
					}
					st, ok := tv.Type.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					keyed := map[types.Object]bool{}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								keyed[lp.info.Uses[id]] = true
								write(lp.info.Uses[id], kv.Value)
							}
							continue
						}
						write(st.Field(i), elt)
					}
					if len(n.Elts) > 0 && len(keyed) == 0 {
						return true // positional: every field is written
					}
					for i := 0; i < st.NumFields(); i++ {
						if f := st.Field(i); !keyed[f] && options[f] != nil {
							options[f].values[zeroValue(f.Type())] = true
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						var value ast.Expr
						if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
							value = n.Rhs[i]
						}
						if f := lp.fieldOf(lhs); f != nil {
							write(f, value)
						}
					}
				case *ast.IncDecStmt:
					if f := lp.fieldOf(n.X); f != nil {
						write(f, nil)
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
		if o.varies || len(o.values) >= 2 {
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
		t.Errorf("%d Go options have fewer than two values in use: non-test code sets each to one constant, or leaves it at its zero value (fold each into a constant, or allow-list it with a reason):\n  %s",
			len(failing), strings.Join(failing, "\n  "))
	}
	for key, reason := range singleValueAllowList {
		switch {
		case !inScope[key]:
			t.Errorf("allow-listed option %s is not an exported field or type of an internal *Config, *Options, *Policy or analysis struct", key)
		case !allowed[key]:
			t.Errorf("allow-listed option %s has a second value in use; drop it from the allow-list (%s)", key, reason)
		}
	}
}

// isAnalysis reports whether *typ has Name and Every methods: the mark
// of an analysis struct.
func isAnalysis(typ types.Type) bool {
	ms := types.NewMethodSet(types.NewPointer(typ))
	return ms.Lookup(nil, "Name") != nil && ms.Lookup(nil, "Every") != nil
}

// zeroValue is how a write of typ's zero value reads among a field's
// values: the constant's exact string for a basic type, as a written
// constant reads, nil for a nillable type, and {} for the rest.
func zeroValue(typ types.Type) string {
	switch u := typ.Underlying().(type) {
	case *types.Basic:
		switch {
		case u.Info()&types.IsBoolean != 0:
			return "false"
		case u.Info()&types.IsString != 0:
			return `""`
		case u.Info()&types.IsNumeric != 0:
			return "0"
		}
		return "nil"
	case *types.Struct, *types.Array:
		return "{}"
	}
	return "nil"
}

// fieldOf returns the struct field that e, a selector, selects, or
// nil.
func (lp *loadedPackage) fieldOf(e ast.Expr) types.Object {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s := lp.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
		return s.Obj()
	}
	return nil
}

var (
	sourcesOnce sync.Once
	sources     *sourceLoader
	sourcesErr  error
)

// loadSources type-checks every package under cmd/, examples/,
// internal/ and benchmark/ once per test binary: the option gate and
// the field gate share the one load.
func loadSources(t *testing.T) *sourceLoader {
	t.Helper()
	sourcesOnce.Do(func() {
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
				sourcesErr = err
				return
			}
		}
		sources = ld
	})
	if sourcesErr != nil {
		t.Fatal(sourcesErr)
	}
	return sources
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
