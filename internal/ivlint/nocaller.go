package ivlint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NoCaller keeps the rule that code with no caller is deleted, not kept.
// It reports each function and method of the analyzed package that no
// non-test code of either module references: no call, no method value, no
// function value. A reference from inside the function itself does not
// count.
//
// It runs on the module-wide pass (Package.Module), because benchmark/ is
// a module of its own and its references count. A package's imports come
// from export data, so their objects are not the ones the imported
// package's own type-check made: references are keyed by package path,
// receiver type and name.
//
// It does not report main, init, or a method that satisfies an interface,
// since dynamic dispatch calls it without naming it. The interfaces are
// those of every loaded package and of everything they import (String for
// fmt.Stringer, Write for io.Writer), the predeclared error, and the
// Unwrap interface the errors package asserts inside its function bodies,
// which export data does not carry.
var NoCaller = &Analyzer{
	Name: "nocaller",
	Doc: "report functions and methods that no non-test code of either module references; " +
		"delete them or move them into the test code that uses them",
	Run: runNoCaller,
}

// funcKey names a function or method the same way in every type-check:
// package path, receiver type name ("" for a function) and name.
type funcKey struct{ pkg, recv, name string }

func keyOf(fn *types.Func) funcKey {
	fn = fn.Origin()
	k := funcKey{name: fn.Name()}
	if fn.Pkg() != nil {
		k.pkg = fn.Pkg().Path()
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			k.recv = n.Origin().Obj().Name()
		}
	}
	return k
}

// referenced returns the key of every function and method some package of
// the module names outside its own body.
func (m *Module) referenced() map[funcKey]bool {
	if m.calls != nil {
		return m.calls
	}
	m.calls = map[funcKey]bool{}
	for _, p := range m.Packages {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				var self funcKey
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := p.TypesInfo.Defs[fd.Name].(*types.Func); ok {
						self = keyOf(fn)
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := p.TypesInfo.Uses[id].(*types.Func); ok {
							if k := keyOf(fn); k != self {
								m.calls[k] = true
							}
						}
					}
					return true
				})
			}
		}
	}
	return m.calls
}

// methodSigs maps method names to signatures.
type methodSigs map[string]string

// sigString renders a signature's parameter and result types, with
// packages named by path, so that one signature read from source and from
// export data renders the same.
func sigString(s *types.Signature) string {
	var b strings.Builder
	qual := func(p *types.Package) string { return p.Path() }
	for _, t := range []*types.Tuple{s.Params(), s.Results()} {
		b.WriteByte('(')
		for i := 0; i < t.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(types.TypeString(t.At(i).Type(), qual))
		}
		b.WriteByte(')')
	}
	if s.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// interfaces returns, by method name, every interface that declares a
// method of that name.
func (m *Module) interfaces() map[string][]methodSigs {
	if m.ifaces != nil {
		return m.ifaces
	}
	byName := map[string][]methodSigs{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 || seen[it] {
			return
		}
		seen[it] = true
		ms := methodSigs{}
		for i := 0; i < it.NumMethods(); i++ {
			f := it.Method(i)
			ms[f.Name()] = sigString(f.Type().(*types.Signature))
		}
		for name := range ms {
			byName[name] = append(byName[name], ms)
		}
	}
	add(types.Universe.Lookup("error").Type())
	byName["Unwrap"] = append(byName["Unwrap"], methodSigs{"Unwrap": "()(error)"})
	visited := map[string]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p.Path()] {
			return
		}
		visited[p.Path()] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range m.Packages {
		walk(p.Types)
		for _, tv := range p.TypesInfo.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	m.ifaces = byName
	return byName
}

// satisfiesInterface reports whether the method named name of the named
// type t (through *t's method set) completes some interface that declares
// a method of that name.
func satisfiesInterface(t types.Type, name string, ifaces map[string][]methodSigs) bool {
	cands := ifaces[name]
	if len(cands) == 0 {
		return false
	}
	set := types.NewMethodSet(types.NewPointer(t))
	have := methodSigs{}
	for i := 0; i < set.Len(); i++ {
		f := set.At(i).Obj()
		have[f.Name()] = sigString(f.Type().(*types.Signature))
	}
next:
	for _, want := range cands {
		for n, sig := range want {
			if have[n] != sig {
				continue next
			}
		}
		return true
	}
	return false
}

func runNoCaller(p *Pass) {
	mod := p.Module
	if mod == nil {
		mod = &Module{Packages: []*Package{{Files: p.Files, Types: p.Pkg, TypesInfo: p.TypesInfo}}}
	}
	calls := mod.referenced()
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := p.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok || calls[keyOf(fn)] {
				continue
			}
			name := fd.Name.Name
			if fd.Recv == nil {
				if name == "init" || name == "_" || (name == "main" && p.Pkg.Name() == "main") {
					continue
				}
			} else {
				recv := fn.Type().(*types.Signature).Recv().Type()
				if ptr, ok := recv.(*types.Pointer); ok {
					recv = ptr.Elem()
				}
				if satisfiesInterface(recv, name, mod.interfaces()) {
					continue
				}
				rt := types.ExprString(fd.Recv.List[0].Type)
				if strings.HasPrefix(rt, "*") {
					rt = "(" + rt + ")"
				}
				name = rt + "." + name
			}
			p.Reportf(fd.Name.Pos(), "%s has no caller outside tests: delete it, "+
				"or move it into the test code that uses it", name)
		}
	}
}
