// Command callers is the callers gate: an exported name declared under
// internal/ needs a caller that is not a test. Run it from the module
// root:
//
//	go run ./tools/callers
//
// It type-checks every non-test .go file of the module and of every
// module nested in it (benchmark/), for the platform it runs on, and
// exits 1 if an exported func, method on a concrete type, const, var or
// type under internal/
//   - is referred to by no non-test file, apart from its own declaration,
//   - implements no interface method, and
//   - has no row in the reason table (table.go);
//
// or if a row of that table names no such declaration, names one that
// needs no row, or gives no reason.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		fatal(fmt.Errorf("run from the module root: %w", err))
	}
	findings, checked, err := check(root, table)
	if err != nil {
		fatal(err)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	fmt.Printf("%d exported names under internal/ checked, %d table rows, %d findings\n", checked, len(table), len(findings))
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// A finding is one name the gate refuses: a declaration with no caller
// (Pos is where it is declared) or a stale table row (Pos is empty).
type finding struct {
	Pos, Name, Why string
}

func (f finding) String() string {
	if f.Pos == "" {
		return fmt.Sprintf("table.go: %s: %s", f.Name, f.Why)
	}
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Name, f.Why)
}

// A decl is one exported declaration under internal/. spans are the
// source ranges that do not count as references to it: the declaration
// itself and, for a type, the receivers of its methods.
type decl struct {
	name  string
	obj   types.Object
	recv  *types.Named // the receiver's type, for a method
	spans [][2]token.Pos
	used  bool
}

// check loads every package under root and returns what the gate
// refuses given the reason table rows, sorted by name, and how many
// declarations it checked.
func check(root string, rows []row) ([]finding, int, error) {
	l, err := load(root)
	if err != nil {
		return nil, 0, err
	}
	decls, byObj := l.declarations()
	for _, p := range l.pkgs {
		for id, obj := range p.info.Uses {
			if d := byObj[origin(obj)]; d != nil && !d.within(id.Pos()) {
				d.used = true
			}
		}
	}
	ifaces, err := l.interfaces()
	if err != nil {
		return nil, 0, err
	}
	tabled := map[string]bool{}
	var out []finding
	for _, r := range rows {
		if tabled[r.Name] {
			out = append(out, finding{Name: r.Name, Why: "stale row: listed twice"})
		}
		tabled[r.Name] = true
		if r.Why < testSeam || r.Why > facade {
			out = append(out, finding{Name: r.Name, Why: "stale row: no reason given"})
		}
	}
	for _, d := range decls {
		reached := d.used || d.implements(ifaces)
		switch {
		case reached && tabled[d.name]:
			out = append(out, finding{Name: d.name, Why: "stale row: it has a non-test caller"})
		case !reached && !tabled[d.name]:
			out = append(out, finding{Pos: l.pos(d.obj), Name: d.name, Why: "no non-test caller"})
		}
		delete(tabled, d.name)
	}
	for name := range tabled {
		out = append(out, finding{Name: name, Why: "stale row: no exported declaration under internal/ has this name"})
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Name < out[j].Name || out[i].Name == out[j].Name && out[i].Why < out[j].Why
	})
	return out, len(decls), nil
}

func (d *decl) within(p token.Pos) bool {
	for _, s := range d.spans {
		if s[0] <= p && p < s[1] {
			return true
		}
	}
	return false
}

// implements reports whether d is a method that its receiver type
// needs to satisfy one of ifaces.
func (d *decl) implements(ifaces []*types.Interface) bool {
	if d.recv == nil || d.recv.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(d.recv)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == d.obj.Name() && types.Implements(ptr, it) {
				return true
			}
		}
	}
	return false
}

// origin maps an instantiated generic func or field to its declaration.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// A pkg is one package of non-test files found under the root.
type pkg struct {
	path     string
	internal bool // declared under <module>/internal/
	files    []*ast.File
	types    *types.Package
	info     *types.Info
	loading  bool
}

// A loader finds, parses and type-checks the root's packages. It is
// the importer of each of them, so one package is one *types.Package
// and references across packages meet the declaring object itself;
// every other import is the standard library, read from source.
type loader struct {
	fset   *token.FileSet
	pkgs   []*pkg // in the order they finished type-checking
	byPath map[string]*pkg
	std    types.Importer
}

func load(root string) (*loader, error) {
	l := &loader{fset: token.NewFileSet(), byPath: map[string]*pkg{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	mods := map[string]string{} // directory → module path of the module it is in
	err := filepath.WalkDir(root, func(dir string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if dir != root && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".") || strings.HasPrefix(e.Name(), "_")) {
			return filepath.SkipDir
		}
		mod, ok := moduleOf(dir)
		switch {
		case !ok && dir == root:
			return fmt.Errorf("%s has no go.mod", root)
		case !ok:
			mod = mods[filepath.Dir(dir)] + "/" + e.Name()
		}
		mods[dir] = mod
		return l.find(dir, mod)
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.byPath))
	for path := range l.byPath {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// moduleOf returns the module path that dir/go.mod declares.
func moduleOf(dir string) (string, bool) {
	f, err := os.Open(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if path, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(path), `"`), true
		}
	}
	return "", false
}

// find parses the non-test .go files in dir that build on this
// platform, as the package with import path path.
func (l *loader) find(dir, path string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	p := &pkg{path: path}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		p.files = append(p.files, f)
	}
	if len(p.files) > 0 {
		p.internal = strings.Contains(path, "/internal/")
		l.byPath[path] = p
	}
	return nil
}

// Import type-checks the package at path, once.
func (l *loader) Import(path string) (*types.Package, error) {
	p := l.byPath[path]
	switch {
	case p == nil:
		return l.std.Import(path)
	case p.types != nil:
		return p.types, nil
	case p.loading:
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	p.loading = true
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	tp, err := (&types.Config{Importer: l}).Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.types = tp
	l.pkgs = append(l.pkgs, p)
	return tp, nil
}

func (l *loader) pos(o types.Object) string {
	pos := l.fset.Position(o.Pos())
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
			pos.Filename = rel
		}
	}
	return fmt.Sprintf("%s:%d", filepath.ToSlash(pos.Filename), pos.Line)
}

// declarations lists the exported declarations under internal/, named
// <package path after internal/>.[<Type>.]<Name>, in source order.
func (l *loader) declarations() ([]*decl, map[types.Object]*decl) {
	var decls []*decl
	byObj := map[types.Object]*decl{}
	add := func(p *pkg, id *ast.Ident, name string, lo, hi token.Pos) *decl {
		obj := p.info.Defs[id]
		d := byObj[obj]
		if d == nil {
			d = &decl{name: name, obj: obj}
			decls = append(decls, d)
			byObj[obj] = d
		}
		d.spans = append(d.spans, [2]token.Pos{lo, hi})
		return d
	}
	for _, p := range l.pkgs {
		if !p.internal {
			continue
		}
		prefix := p.path[strings.LastIndex(p.path, "/internal/")+len("/internal/"):] + "."
		typeDecls := map[string]*decl{}
		var methods []*ast.FuncDecl
		for _, f := range p.files {
			for _, gd := range f.Decls {
				switch gd := gd.(type) {
				case *ast.FuncDecl:
					if gd.Recv != nil {
						methods = append(methods, gd)
					} else if gd.Name.IsExported() {
						add(p, gd.Name, prefix+gd.Name.Name, gd.Pos(), gd.End())
					}
				case *ast.GenDecl:
					for _, s := range gd.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								typeDecls[s.Name.Name] = add(p, s.Name, prefix+s.Name.Name, s.Pos(), s.End())
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.IsExported() {
									add(p, id, prefix+id.Name, s.Pos(), s.End())
								}
							}
						}
					}
				}
			}
		}
		for _, m := range methods {
			recv := m.Recv.List[0].Type
			named := p.info.Types[recv].Type
			if ptr, ok := named.(*types.Pointer); ok {
				named = ptr.Elem()
			}
			n, _ := named.(*types.Named)
			if n == nil {
				continue
			}
			if t := typeDecls[n.Obj().Name()]; t != nil {
				t.spans = append(t.spans, [2]token.Pos{recv.Pos(), recv.End()})
			}
			if m.Name.IsExported() {
				add(p, m.Name, prefix+n.Obj().Name()+"."+m.Name.Name, m.Pos(), m.End()).recv = n
			}
		}
	}
	return decls, byObj
}

// errorsInterfaces are the interfaces errors.Is, As and Unwrap assert
// inside their bodies, which the source importer does not type-check.
const errorsInterfaces = `package errors
type unwrapper interface{ Unwrap() error }
type multiUnwrapper interface{ Unwrap() []error }
type iser interface{ Is(error) bool }
type aser interface{ As(any) bool }`

// interfaces collects every interface type with methods the packages
// can name: those their code spells out, the package-level ones of
// every package they import, transitively, and errorsInterfaces.
func (l *loader) interfaces() ([]*types.Interface, error) {
	seen := map[*types.Interface]bool{}
	var out []*types.Interface
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if ok && it.NumMethods() > 0 && it.IsMethodSet() && !seen[it] {
			if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 && n.TypeArgs().Len() == 0 {
				return
			}
			seen[it] = true
			out = append(out, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	f, err := parser.ParseFile(l.fset, "errors.go", errorsInterfaces, 0)
	if err != nil {
		return nil, err
	}
	errs, err := (&types.Config{}).Check("errors", l.fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	visited := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if visited[tp] {
			return
		}
		visited[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	walk(errs)
	for _, p := range l.pkgs {
		walk(p.types)
		for _, tv := range p.info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "callers:", err)
	os.Exit(1)
}
