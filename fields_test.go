package insitu

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// unreadAllowList names the struct fields that no selector reads but
// that may stay anyway, each with its reason. An entry names a field
// ("pkg.Type.Field") or a whole type ("pkg.Type").
var unreadAllowList = map[string]string{
	"core.AssessTestResult":    "a route result: core.ResultDigest prints it whole with %v, so every field is in the journaled digest",
	"core.AutoCorrResult":      "a route result: core.ResultDigest prints it whole with %v, so every field is in the journaled digest",
	"core.Degraded":            "a route result: core.ResultDigest prints it whole with %v, so the reason is in the journaled digest",
	"mergetree.Feature":        "inside a route result: core.ResultDigest prints the feature list whole with %v",
	"mergetree.FeatureStat":    "inside a route result: core.ResultDigest prints the feature statistics whole with %v",
	"mergetree.StreamStats":    "inside a route result: core.ResultDigest prints the streaming merge's counters whole with %v",
	"stats.Assessment":         "inside a route result: core.ResultDigest prints the assessment whole with %v",
	"stats.ContingencyDerived": "a route result: core.ResultDigest prints it whole with %v",
	"stats.TestResult":         "inside a route result: core.ResultDigest prints the test outcome whole with %v",
	"imagestore.Stats.Dropped": "fault count: the torn-segment tests read how many index entries a reopen dropped; no run tears a segment",
}

// TestEveryFieldIsRead: a struct field that code writes and nothing
// reads is state no stage consumes, and the code that fills it is
// waste. The test scopes every field of every package-level struct type
// in non-test files under internal/, except embedded fields, _ fields
// and fields with a JSON key, which encoding/json reads. Each use of a
// field's selector in non-test code under cmd/, examples/, internal/ or
// benchmark/ is a read, except where it is written: the left side of
// =, := or op= (x.f[k] = v too), x.f++ and x.f--, x.f = append(x.f,
// ...), and an atomic Add, Store, Swap or CompareAndSwap whose result
// is dropped (x.f.Add(1), atomic.AddInt64(&x.f, 1)). A key of a keyed
// composite literal writes its field too. &x.f is a read. A field with
// a write and no read fails unless unreadAllowList names it or its type
// with a reason; an allow-list entry that excuses no such field fails
// too.
func TestEveryFieldIsRead(t *testing.T) {
	t.Parallel()
	ld := loadSources(t)

	type field struct {
		key, pos      string
		reads, writes int
	}
	fields := map[*types.Var]*field{}
	inScope := map[string]bool{} // allow-list keys that name a field or its type
	for _, lp := range ld.pkgs {
		if !strings.HasPrefix(lp.dir, "internal"+string(filepath.Separator)) {
			continue
		}
		scope := lp.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			typeKey := lp.pkg.Name() + "." + name
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Embedded() || f.Name() == "_" {
					continue
				}
				if key, _, _ := strings.Cut(reflect.StructTag(st.Tag(i)).Get("json"), ","); key != "" && key != "-" {
					continue
				}
				inScope[typeKey] = true
				fd := &field{key: typeKey + "." + f.Name(), pos: ld.fset.Position(f.Pos()).String()}
				inScope[fd.key] = true
				fields[f] = fd
			}
		}
	}

	for _, lp := range ld.pkgs {
		// selected returns the in-scope field that e selects, or nil.
		selected := func(e ast.Expr) *field {
			if f := lp.fieldOf(e); f != nil {
				return fields[f.(*types.Var).Origin()]
			}
			return nil
		}
		written := map[ast.Expr]bool{} // the selectors in a write position
		// write records the selector that e (x.f, or x.f[k]) writes.
		write := func(e ast.Expr) {
			e = ast.Unparen(e)
			if ix, ok := e.(*ast.IndexExpr); ok {
				e = ast.Unparen(ix.X)
			}
			if fd := selected(e); fd != nil {
				written[e] = true
				fd.writes++
			}
		}
		for _, file := range lp.files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						write(lhs)
					}
					if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
						if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok && len(call.Args) > 0 && isBuiltin(lp, call.Fun, "append") {
							if fd := selected(n.Lhs[0]); fd != nil && fd == selected(call.Args[0]) {
								write(call.Args[0])
							}
						}
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.ExprStmt:
					if target := atomicWriteTarget(lp, n.X); target != nil {
						write(target)
					}
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								if f, ok := lp.info.Uses[id].(*types.Var); ok && fields[f.Origin()] != nil {
									fields[f.Origin()].writes++
								}
							}
						}
					}
				}
				return true
			})
			ast.Inspect(file, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && !written[sel] {
					if fd := selected(sel); fd != nil {
						fd.reads++
					}
				}
				return true
			})
		}
	}

	var failing []string
	allowed := map[string]bool{} // allow-list keys that excuse a failing field
	unread := 0
	for _, fd := range fields {
		if fd.reads > 0 || fd.writes == 0 {
			continue
		}
		unread++
		typeKey := fd.key[:strings.LastIndex(fd.key, ".")]
		switch {
		case unreadAllowList[fd.key] != "":
			allowed[fd.key] = true
		case unreadAllowList[typeKey] != "":
			allowed[typeKey] = true
		default:
			failing = append(failing, fd.pos+": "+fd.key)
		}
	}
	sort.Strings(failing)
	t.Logf("%d packages type-checked; %d fields in scope, %d written and never read; allow-list of %d",
		len(ld.pkgs), len(fields), unread, len(unreadAllowList))
	if len(failing) > 0 {
		t.Errorf("%d fields are written and never read: delete each with the code that fills it, or allow-list it with a reason:\n  %s",
			len(failing), strings.Join(failing, "\n  "))
	}
	for key, reason := range unreadAllowList {
		switch {
		case !inScope[key]:
			t.Errorf("allow-listed field %s is not a field or type of an internal struct in scope", key)
		case !allowed[key]:
			t.Errorf("allow-listed field %s excuses no field that is written and never read; drop it from the allow-list (%s)", key, reason)
		}
	}
}

// isBuiltin reports whether fun names the builtin function name.
func isBuiltin(lp *loadedPackage, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := lp.info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// atomicWriteTarget returns what x, the expression of an expression
// statement, writes atomically: x.f for x.f.Add(d) on a sync/atomic
// type and for atomic.AddInt64(&x.f, d), and likewise for Store, Swap
// and CompareAndSwap. It returns nil for any other expression.
func atomicWriteTarget(lp *loadedPackage, x ast.Expr) ast.Expr {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	obj := lp.info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" || !isAtomicWrite(obj.Name()) {
		return nil
	}
	if s := lp.info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
		return sel.X // x.f.Add(d)
	}
	if len(call.Args) > 0 {
		if u, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr); ok && u.Op == token.AND {
			return u.X // atomic.AddInt64(&x.f, d)
		}
	}
	return nil
}

// isAtomicWrite reports whether a sync/atomic function or method name
// writes its operand.
func isAtomicWrite(name string) bool {
	for _, prefix := range []string{"Add", "Store", "Swap", "CompareAndSwap"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}
