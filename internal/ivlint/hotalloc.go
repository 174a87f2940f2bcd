package ivlint

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotAlloc enforces the access path's zero-alloc steady state. The per-op
// entry points (Controller.Do, Cache.Access, Machine.step, ...) carry a
//
//	//ivlint:hotpath
//
// marker in their doc comment; the analyzer computes the set of functions
// reachable from those roots through intra-package calls and reports, inside
// that set,
//
//   - map allocations (make(map...) and map composite literals): the access
//     path indexes flat arenas by typed IDs, never hashes; and
//   - escaping appends: an append whose destination is anything but a plain
//     function-local slice (a struct field, a package variable, a returned
//     value) grows heap state on every access and defeats
//     testing.AllocsPerRun(...) == 0.
//
// Appends that stay in a function-local slice are tolerated — that is the
// amortized collect-then-discard pattern (e.g. LRU-stamp renormalization),
// and the differential AllocsPerRun test is the backstop for those.
// Deliberate cold branches on the hot path (lazy arena materialization that
// quiesces after warmup) carry an //ivlint:allow with the argument for why
// the allocation is amortized.
//
// The reachability walk is intra-package and name-resolved: calls through
// function values, interfaces, or other packages do not add edges. Each
// package therefore marks its own roots.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "forbid map allocation and escaping append in functions reachable " +
		"from an //ivlint:hotpath root; steady-state accesses must not allocate",
	Packages: []string{
		"ivleague/internal/arena",
		"ivleague/internal/cache",
		"ivleague/internal/pagetable",
		"ivleague/internal/ctr",
		"ivleague/internal/tree",
		"ivleague/internal/core",
		"ivleague/internal/secmem",
		"ivleague/internal/sim",
	},
	Run: runHotAlloc,
}

// hotpathMarker introduces a hot-root declaration in a function's doc
// comment. It is a marker, not a suppression, so it lives outside the
// //ivlint:allow namespace.
const hotpathMarker = "//ivlint:hotpath"

func hotpathMarked(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if c.Text == hotpathMarker || strings.HasPrefix(c.Text, hotpathMarker+" ") {
			return true
		}
	}
	return false
}

func runHotAlloc(p *Pass) {
	// Collect the package's function declarations and hot roots, in source
	// order so reporting stays deterministic.
	decls := map[types.Object]*ast.FuncDecl{}
	var order []types.Object
	roots := map[types.Object]bool{}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj := p.TypesInfo.Defs[fn.Name]
			if obj == nil {
				continue
			}
			decls[obj] = fn
			order = append(order, obj)
			if hotpathMarked(fn) {
				roots[obj] = true
			}
		}
	}

	// Intra-package call edges, resolved through the type checker so
	// shadowed names and same-named methods on different types don't
	// confuse the walk.
	edges := map[types.Object][]types.Object{}
	for _, obj := range order {
		caller := obj
		ast.Inspect(decls[obj].Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var id *ast.Ident
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				id = fun
			case *ast.SelectorExpr:
				id = fun.Sel
			default:
				return true
			}
			callee := p.TypesInfo.Uses[id]
			if callee == nil {
				return true
			}
			if _, ok := decls[callee]; ok {
				edges[caller] = append(edges[caller], callee)
			}
			return true
		})
	}

	// Breadth-first reachability from the roots; each function remembers
	// the first root that reaches it, for the diagnostic message.
	rootOf := map[types.Object]string{}
	var queue []types.Object
	for _, obj := range order {
		if roots[obj] {
			rootOf[obj] = obj.Name()
			queue = append(queue, obj)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range edges[cur] {
			if _, seen := rootOf[next]; !seen {
				rootOf[next] = rootOf[cur]
				queue = append(queue, next)
			}
		}
	}

	for _, obj := range order {
		if root, ok := rootOf[obj]; ok {
			checkHotFunc(p, decls[obj], root)
		}
	}
}

// checkHotFunc reports the allocation sites inside one hot-reachable
// function.
func checkHotFunc(p *Pass, fn *ast.FuncDecl, root string) {
	name := fn.Name.Name
	// First pass: classify appends by how their result is used. Appends
	// assigned to a plain local identifier are the tolerated
	// collect-then-discard pattern; everything else escapes.
	verdict := map[*ast.CallExpr]bool{} // true = already reported
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				call := appendCall(p, rhs)
				if call == nil || i >= len(st.Lhs) {
					continue
				}
				lhs := st.Lhs[i]
				if id, ok := lhs.(*ast.Ident); ok && isLocalVar(p, id) {
					verdict[call] = false // local: amortized, AllocsPerRun backstops it
					continue
				}
				verdict[call] = true
				p.Reportf(call.Pos(), "append in %s escapes into %s (reachable from hot root %s); "+
					"preallocate at construction", name, types.ExprString(lhs), root)
			}
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				if call := appendCall(p, r); call != nil {
					verdict[call] = true
					p.Reportf(call.Pos(), "append in %s is returned (reachable from hot root %s); "+
						"the slice escapes on every access", name, root)
				}
			}
		}
		return true
	})
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			if isBuiltinCall(p, e, "make") && len(e.Args) > 0 {
				if t := p.TypesInfo.TypeOf(e.Args[0]); t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						p.Reportf(e.Pos(), "%s allocates a map (reachable from hot root %s); "+
							"use a flat arena indexed by typed IDs", name, root)
					}
				}
			}
			if isBuiltinCall(p, e, "append") {
				if _, seen := verdict[e]; seen {
					return true
				}
				// Not an assignment or return: used as an argument or
				// otherwise consumed. Appending to a local is still the
				// tolerated pattern; anything else escapes.
				if len(e.Args) > 0 {
					if id, ok := e.Args[0].(*ast.Ident); ok && isLocalVar(p, id) {
						return true
					}
				}
				p.Reportf(e.Pos(), "append in %s escapes (reachable from hot root %s)", name, root)
			}
		case *ast.CompositeLit:
			if t := p.TypesInfo.TypeOf(e); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					p.Reportf(e.Pos(), "map literal in %s allocates (reachable from hot root %s); "+
						"use a flat arena indexed by typed IDs", name, root)
				}
			}
		}
		return true
	})
}

// appendCall returns expr as a call to the append builtin, or nil.
func appendCall(p *Pass, expr ast.Expr) *ast.CallExpr {
	for {
		par, ok := expr.(*ast.ParenExpr)
		if !ok {
			break
		}
		expr = par.X
	}
	call, ok := expr.(*ast.CallExpr)
	if !ok || !isBuiltinCall(p, call, "append") {
		return nil
	}
	return call
}

// isBuiltinCall reports whether call invokes the named builtin (and not a
// shadowing identifier).
func isBuiltinCall(p *Pass, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := p.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// isLocalVar reports whether id names a function-local variable (parameter,
// result, or body declaration) — not a field and not a package-level var.
// The blank identifier counts as local: a discarded append result does not
// accumulate.
func isLocalVar(p *Pass, id *ast.Ident) bool {
	if id.Name == "_" {
		return true
	}
	obj := p.TypesInfo.ObjectOf(id)
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	if v.IsField() {
		return false
	}
	return v.Parent() != nil && v.Parent() != p.Pkg.Scope()
}
