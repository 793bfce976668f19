// Package reach holds one rule over the module's non-test code: every
// declaration ships because a program reaches it, not because a test
// calls it. TestEverythingIsReached type-checks the module's non-test
// files with go/types and fails on any package-level function, method,
// type, constant or variable that no reached code references, and on any
// exported field of an Options or Config struct that no non-test code
// sets. testdata/reach.allow names the few exceptions, each with its
// reason.
//
// The package has no non-test files, so nothing here ships either.
package reach

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
	"testing"
)

// TestEverythingIsReached runs the probe over the module this package
// belongs to.
func TestEverythingIsReached(t *testing.T) {
	allow := readAllow(t, filepath.Join("testdata", "reach.allow"))
	r, err := probe(filepath.Join("..", ".."), allow)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range r.lines() {
		t.Error(line)
	}
	if t.Failed() {
		t.Log("delete what only tests reach, move a test's reference implementation into its _test.go file, " +
			"or name a deliberate exception in testdata/reach.allow with its reason")
	}
}

// TestProbeFixture pins the probe's report on a module holding one case
// of each kind it decides (testdata/fixture).
func TestProbeFixture(t *testing.T) {
	dir := filepath.Join("testdata", "fixture")
	r, err := probe(dir, readAllow(t, filepath.Join(dir, "reach.allow")))
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(r.lines(), "\n")
	want := strings.Join([]string{
		"unreached: lib.Dead (lib/lib.go:5)",
		"unreached: lib.OnlyDeadCalls (lib/lib.go:9)",
		"unset: lib.Options.Unset (lib/lib.go:32)",
		"stale allow entry: lib.NoSuchName",
	}, "\n")
	if got != want {
		t.Errorf("report:\n%s\nwant:\n%s", got, want)
	}
}

// report is what the probe finds. Each list is sorted.
type report struct {
	unreached []string // declarations no reached code references
	unset     []string // Options/Config fields no non-test code writes
	stale     []string // allow entries that name nothing the probe would report
}

func (r report) lines() []string {
	var out []string
	for _, s := range r.unreached {
		out = append(out, "unreached: "+s)
	}
	for _, s := range r.unset {
		out = append(out, "unset: "+s)
	}
	for _, s := range r.stale {
		out = append(out, "stale allow entry: "+s)
	}
	return out
}

// readAllow reads an allow list: one name a line, then its reason;
// blank lines and lines starting with # are skipped.
func readAllow(t *testing.T, file string) map[string]bool {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Fatalf("%s:%d: %s has no reason", file, n, name)
		}
		allow[name] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

// module is a module's non-test code, parsed and type-checked.
type module struct {
	root, path string // directory, and module path from go.mod
	fset       *token.FileSet
	pkgs       map[string]*pkg // by import path
	std        types.ImporterFrom
}

type pkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// probe loads the module rooted at dir and reports what only tests can
// reach. Names are a package's path below the module, then the
// declaration: internal/wal.Log.Compact, lib.Options.Unset.
func probe(dir string, allow map[string]bool) (report, error) {
	m, err := load(dir)
	if err != nil {
		return report{}, err
	}
	g := m.graph()
	var r report
	without := g.reach(nil)
	with := g.reach(allow)
	for o, name := range g.names {
		if !with[o] {
			r.unreached = append(r.unreached, fmt.Sprintf("%s (%s)", name, m.pos(o)))
		}
	}
	written := m.writes()
	unset := map[string]bool{}
	for _, s := range m.settings() {
		if !written[s.field] {
			unset[s.name] = true
			if !allow[s.name] {
				r.unset = append(r.unset, fmt.Sprintf("%s (%s)", s.name, m.pos(s.field)))
			}
		}
	}
	for name := range allow {
		if o, ok := g.byName[name]; ok && !without[o] || unset[name] {
			continue
		}
		r.stale = append(r.stale, name)
	}
	sort.Strings(r.unreached)
	sort.Strings(r.unset)
	sort.Strings(r.stale)
	return r, nil
}

func load(dir string) (*module, error) {
	mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &module{root: dir, fset: token.NewFileSet(), pkgs: map[string]*pkg{}}
	for _, line := range strings.Split(string(mod), "\n") {
		if p, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			m.path = strings.Trim(strings.TrimSpace(p), `"`)
		}
	}
	if m.path == "" {
		return nil, fmt.Errorf("%s/go.mod names no module", dir)
	}
	m.std = importer.ForCompiler(m.fset, "source", nil).(types.ImporterFrom)
	err = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != dir {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module is not this one
			}
		}
		return m.parseDir(p)
	})
	if err != nil {
		return nil, err
	}
	for _, path := range m.paths() {
		if _, err := m.check(m.pkgs[path]); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// parseDir parses the non-test files of dir that the default build
// context selects, so of a //go:build pair only this platform's half.
func (m *module) parseDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return err
			}
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil
	}
	rel, err := filepath.Rel(m.root, dir)
	if err != nil {
		return err
	}
	path := m.path
	if rel != "." {
		path += "/" + filepath.ToSlash(rel)
	}
	m.pkgs[path] = &pkg{path: path, files: files}
	return nil
}

func (m *module) paths() []string {
	var out []string
	for path := range m.pkgs {
		out = append(out, path)
	}
	sort.Strings(out)
	return out
}

// check type-checks p after the module packages it imports; the standard
// library comes from source.
func (m *module) check(p *pkg) (*types.Package, error) {
	if p.types != nil {
		return p.types, nil
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: m}
	tp, err := conf.Check(p.path, m.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.types = tp
	return tp, nil
}

func (m *module) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *module) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return m.check(p)
	}
	return m.std.ImportFrom(path, dir, mode)
}

func (m *module) pos(o types.Object) string {
	p := m.fset.Position(o.Pos())
	rel, err := filepath.Rel(m.root, p.Filename)
	if err != nil {
		rel = p.Filename
	}
	return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)
}

func (m *module) mine(o types.Object) bool {
	return o != nil && o.Pkg() != nil && m.pkgs[o.Pkg().Path()] != nil
}

// name is o's report name: its package's path below the module, then
// the receiver or struct for a method or field.
func (m *module) name(o types.Object, owner string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(o.Pkg().Path(), m.path), "/")
	if rel == "" {
		rel = "."
	}
	if owner != "" {
		return rel + "." + owner + "." + o.Name()
	}
	return rel + "." + o.Name()
}

// origin maps an instantiated function, method or field to its generic
// declaration.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// graph is the module's declarations and what each references.
type graph struct {
	names  map[types.Object]string
	byName map[string]types.Object
	refs   map[types.Object][]types.Object
	roots  []types.Object // referenced from main, init or a blank var
	named  []types.Object // methods an interface reaches (interfaceMethodNames, implementsStd)
}

func (m *module) graph() *graph {
	g := &graph{names: map[types.Object]string{}, byName: map[string]types.Object{}, refs: map[types.Object][]types.Object{}}
	methodNames := m.interfaceMethodNames()
	stdIfaces := m.stdInterfaces()
	add := func(o types.Object, name string) {
		g.names[o] = name
		g.byName[name] = o
	}
	for _, path := range m.paths() {
		p := m.pkgs[path]
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					o := p.info.Defs[d.Name].(*types.Func)
					refs := m.refs(p, d)
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.types.Name() == "main") {
						g.roots = append(g.roots, refs...)
						continue
					}
					owner := ""
					if d.Recv != nil {
						recv := recvNamed(o)
						owner = recv.Obj().Name()
						if methodNames[o.Name()] || implementsStd(recv, o.Name(), stdIfaces) {
							g.named = append(g.named, o)
						}
					}
					add(o, m.name(o, owner))
					g.refs[o] = refs
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							o := p.info.Defs[s.Name]
							add(o, m.name(o, ""))
							g.refs[o] = m.refs(p, s)
						case *ast.ValueSpec:
							refs := m.refs(p, s)
							for _, id := range s.Names {
								if id.Name == "_" {
									g.roots = append(g.roots, refs...)
									continue
								}
								o := p.info.Defs[id]
								add(o, m.name(o, ""))
								g.refs[o] = refs
							}
						}
					}
				}
			}
		}
	}
	return g
}

// reach is the fixed point: every declaration referenced from main, init
// or a blank var, every method an interface reaches, every allowed name,
// and every declaration a reached one references.
func (g *graph) reach(allow map[string]bool) map[types.Object]bool {
	seen := map[types.Object]bool{}
	var queue []types.Object
	mark := func(o types.Object) {
		if _, decl := g.names[o]; decl && !seen[o] {
			seen[o] = true
			queue = append(queue, o)
		}
	}
	for _, o := range g.roots {
		mark(o)
	}
	for _, o := range g.named {
		mark(o)
	}
	for name := range allow {
		if o, ok := g.byName[name]; ok {
			mark(o)
		}
	}
	for len(queue) > 0 {
		o := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, r := range g.refs[o] {
			mark(r)
		}
	}
	return seen
}

// refs lists the module objects node references.
func (m *module) refs(p *pkg, node ast.Node) []types.Object {
	var out []types.Object
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if o := p.info.Uses[id]; m.mine(o) {
				out = append(out, origin(o))
			}
		}
		return true
	})
	return out
}

func recvNamed(f *types.Func) *types.Named {
	t := f.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named)
}

// interfaceMethodNames is every method name of every interface type the
// module writes, named or anonymous, embedded methods included.
func (m *module) interfaceMethodNames() map[string]bool {
	names := map[string]bool{}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if iface, ok := p.info.Types[it].Type.(*types.Interface); ok {
						for i := 0; i < iface.NumMethods(); i++ {
							names[iface.Method(i).Name()] = true
						}
					}
				}
				return true
			})
		}
	}
	return names
}

// stdInterfaces indexes by method name every named interface of the
// standard-library packages the module loads, and error.
func (m *module) stdInterfaces() map[string][]*types.Interface {
	byMethod := map[string][]*types.Interface{}
	add := func(iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byMethod[name] = append(byMethod[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	var visit func(tp *types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		if m.pkgs[tp.Path()] == nil {
			scope := tp.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
					if iface, ok := tn.Type().Underlying().(*types.Interface); ok && !tn.IsAlias() {
						add(iface)
					}
				}
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, p := range m.pkgs {
		visit(p.types)
	}
	return byMethod
}

// implementsStd reports whether recv, or a pointer to it, implements a
// standard-library interface that has a method named method. A generic
// type is taken to, since an uninstantiated one cannot be asked.
func implementsStd(recv *types.Named, method string, ifaces map[string][]*types.Interface) bool {
	for _, iface := range ifaces[method] {
		if recv.TypeParams().Len() > 0 || types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// A setting is an exported field of one of the module's structs named
// *Options or *Config.
type setting struct {
	field *types.Var
	name  string
}

func (m *module) settings() []setting {
	var out []setting
	for _, path := range m.paths() {
		scope := m.pkgs[path].types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						out = append(out, setting{f, m.name(f, name)})
					}
				}
			}
		}
	}
	return out
}

// writes is every struct field the module's non-test code sets: a key of
// a composite literal (every field, for a positional one), the left side
// of an assignment or ++/--, or the operand of & (a flag binding).
func (m *module) writes() map[*types.Var]bool {
	written := map[*types.Var]bool{}
	for _, p := range m.pkgs {
		field := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if v, ok := p.info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
					written[v.Origin()] = true
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, isStruct := p.info.Types[n].Type.Underlying().(*types.Struct)
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() {
									written[v.Origin()] = true
								}
							}
						} else if isStruct {
							for i := 0; i < st.NumFields(); i++ {
								written[st.Field(i).Origin()] = true
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						field(lhs)
					}
				case *ast.IncDecStmt:
					field(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						field(n.X)
					}
				}
				return true
			})
		}
	}
	return written
}
