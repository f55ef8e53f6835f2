package analysis

// testonly.go finds production code that only tests call. The loader
// parses no _test.go file, so every reference it sees is a non-test one,
// counted across every loaded package, the reference-only ones too.
//
// A method also counts as used when its type, or a pointer to it,
// implements an interface that non-test code uses — decided with
// types.Implements, not by name. error, fmt.Stringer and json.Marshaler,
// which the standard library calls through `any`, are always in that set.
//
// `//spin:testhook <reason>` in a doc comment marks a function that must
// stay in a non-test file: a hook that tests of another package drive, or
// code whose caller an open ROADMAP item (named in the reason) will add.
// References from a hook's body keep its helpers alive but never make
// another hook used.

import (
	"go/ast"
	"go/types"
)

// TestOnly reports non-test functions and methods that only tests use.
var TestOnly = &Analyzer{
	Name: "testonly",
	Doc: "report functions and methods that no non-test file of the module " +
		"or of bench/ references; //spin:testhook <reason> marks a test hook",
	Run: runTestOnly,
}

func runTestOnly(pass *Pass) {
	u := pass.Prog.usage()
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "_" || (fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main")) {
				continue
			}
			obj := pass.Pkg.Info.Defs[fd.Name]
			name := fd.Name.Name
			if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
				t := recv.Type()
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				name = t.(*types.Named).Obj().Name() + "." + name
			}
			reason, hook := directive("testhook", fd.Doc)
			switch {
			case hook && len(reason) == 0:
				pass.Reportf(fd.Name.Pos(), "//spin:testhook on %s needs a reason", name)
			case hook && u.refs[obj]:
				pass.Reportf(fd.Name.Pos(), "%s is marked //spin:testhook but non-test code uses it: drop the annotation", name)
			case !hook && !u.refs[obj] && !u.hookRefs[obj] && !u.viaIface[obj]:
				pass.Reportf(fd.Name.Pos(), "nothing outside tests uses %s: delete it, move it into a _test.go file, or mark it //spin:testhook <reason>", name)
			}
		}
	}
}

// usage is the program-wide reference set testonly decides from.
type usage struct {
	refs     map[types.Object]bool // referenced outside its own body and outside hooks
	hookRefs map[types.Object]bool // referenced from a hook's body
	viaIface map[types.Object]bool // methods reached through a used interface
}

// usage computes, once per program, which objects non-test code uses.
func (prog *Program) usage() *usage {
	if prog.used != nil {
		return prog.used
	}
	u := &usage{make(map[types.Object]bool), make(map[types.Object]bool), make(map[types.Object]bool)}
	ifaces := make(map[types.Type]bool)
	visited := make(map[types.Type]bool)
	var named []*types.Named
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				var self types.Object
				into := u.refs
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = pkg.Info.Defs[fd.Name]
					if _, hook := directive("testhook", fd.Doc); hook {
						into = u.hookRefs
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := pkg.Info.Uses[id]; obj != nil && obj != self {
							if fn, ok := obj.(*types.Func); ok {
								obj = fn.Origin()
							}
							into[obj] = true
						}
					}
					return true
				})
			}
		}
		for _, tv := range pkg.Info.Types {
			collectIfaces(tv.Type, ifaces, visited)
		}
		for _, obj := range pkg.Info.Uses {
			collectIfaces(obj.Type(), ifaces, visited)
		}
		for _, obj := range pkg.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
	}
	ifaces[types.Universe.Lookup("error").Type()] = true
	for _, ref := range [][2]string{{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}} {
		if pkg, err := prog.std.Import(ref[0]); err == nil {
			ifaces[pkg.Scope().Lookup(ref[1]).Type()] = true
		}
	}

	for _, n := range named {
		ptr := types.NewPointer(n)
		mset := types.NewMethodSet(ptr)
		for it := range ifaces {
			iface := it.Underlying().(*types.Interface)
			if mset.Lookup(iface.Method(0).Pkg(), iface.Method(0).Name()) == nil || !types.Implements(ptr, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
				u.viaIface[obj.(*types.Func).Origin()] = true
			}
		}
	}
	prog.used = u
	return u
}

// collectIfaces adds to ifaces every non-empty interface type that t is
// or is built from (element types, and signature parameters and
// results), so that an interface a called function takes counts as used.
func collectIfaces(t types.Type, ifaces, visited map[types.Type]bool) {
	if t == nil || visited[t] {
		return
	}
	visited[t] = true
	switch x := t.(type) {
	case *types.Named:
		if iface, ok := x.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 && x.TypeParams().Len() == x.TypeArgs().Len() {
			ifaces[t] = true
		}
	case *types.Interface:
		if x.NumMethods() > 0 {
			ifaces[t] = true
		}
	case *types.Map:
		collectIfaces(x.Key(), ifaces, visited)
		collectIfaces(x.Elem(), ifaces, visited)
	case interface{ Elem() types.Type }: // pointer, slice, array, channel
		collectIfaces(x.Elem(), ifaces, visited)
	case *types.Signature:
		for _, tuple := range []*types.Tuple{x.Params(), x.Results()} {
			for i := 0; i < tuple.Len(); i++ {
				collectIfaces(tuple.At(i).Type(), ifaces, visited)
			}
		}
	}
}
