// Package shardlock implements the fadinglint analyzer enforcing the
// repository's lock-discipline convention: a struct field annotated
//
//	// guarded-by: <lock>
//
// (where <lock> names a sibling mutex field, e.g. the service Manager's
// sessions map guarded by mu) may only be read or written in functions that
// visibly hold the lock. "Visibly" is a deliberately simple, reviewable
// heuristic: a call to <lock>.Lock() or <lock>.RLock() must precede the
// access in the same function body, or the function must be marked
// "// fadinglint:holdslock <lock>" (the caller-held convention for helpers
// invoked under the lock). Accesses that are safe for another reason —
// construction before publication, say — carry
// "//lint:allow shardlock <reason>".
//
// The analyzer does not prove the absence of races (Unlock/reorder tracking
// is out of scope; the race detector keeps that job); it catches the class
// fixed by hand in PR 5 — a guarded field touched in a function with no lock
// acquisition anywhere in sight.
package shardlock

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/directive"
)

// Analyzer is the shardlock check.
var Analyzer = &analysis.Analyzer{
	Name: "shardlock",
	Doc:  "require guarded-by annotated fields to be accessed under their lock or in fadinglint:holdslock functions",
	Run:  run,
}

// guard is one guarded field.
type guard struct {
	lock string // sibling lock field name
}

func run(pass *analysis.Pass) (any, error) {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil, nil
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, guards, fd)
		}
	}
	return nil, nil
}

// collectGuards indexes guarded-by annotated fields by their objects.
func collectGuards(pass *analysis.Pass) map[types.Object]guard {
	guards := make(map[types.Object]guard)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				lock, ok := directive.GuardedBy(field.Doc, field.Comment)
				if !ok {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						guards[obj] = guard{lock: lock}
					}
				}
			}
			return true
		})
	}
	return guards
}

// checkFunc flags guarded-field accesses in fd that no preceding lock
// acquisition or holdslock marker covers.
func checkFunc(pass *analysis.Pass, guards map[types.Object]guard, fd *ast.FuncDecl) {
	// held collects the locks this function is marked as holding on entry.
	heldArg, marked := directive.FuncMarker(fd.Doc, "holdslock")

	// acquisitions[lock] lists the positions of <lock>.Lock()/RLock() calls.
	acquisitions := make(map[string][]token.Pos)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		if name, ok := lockName(sel.X); ok {
			acquisitions[name] = append(acquisitions[name], call.Pos())
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[sel.Sel]
		g, guarded := guards[obj]
		if !guarded {
			return true
		}
		if marked && (heldArg == "" || hasLock(heldArg, g.lock)) {
			return true
		}
		for _, pos := range acquisitions[g.lock] {
			if pos < sel.Pos() {
				return true
			}
		}
		pass.Reportf(sel.Sel.Pos(),
			"%s is guarded by %q but no %s.Lock()/RLock() precedes this access in %s; hold the lock, mark the function fadinglint:holdslock %s, or annotate //lint:allow shardlock <reason>",
			obj.Name(), g.lock, g.lock, fd.Name.Name, g.lock)
		return true
	})
}

// hasLock reports whether the space-separated holdslock argument names lock.
func hasLock(arg, lock string) bool {
	for _, name := range strings.Fields(arg) {
		if name == lock {
			return true
		}
	}
	return false
}

// lockName extracts the innermost field or variable name of a lock
// expression: sh.mu yields "mu", mu yields "mu".
func lockName(x ast.Expr) (string, bool) {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name, true
	case *ast.SelectorExpr:
		return x.Sel.Name, true
	case *ast.ParenExpr:
		return lockName(x.X)
	}
	return "", false
}
