package rocc_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// programs are the main packages the module builds.
var programs = []string{"./cmd/roccsim", "./bench", "./cmd/rocclab", "./cmd/roccp4", "./examples/quickstart"}

// TestNoBinaryLinksNetHTTP lists the package dependencies of every
// program the module builds and fails if one of them links net/http.
// Nothing the simulator, the benchmark, the testbed or the P4 generator
// does needs an HTTP stack, and linking one drags in crypto/tls and
// about a hundred other packages: larger binaries and more resident
// memory in every run.
func TestNoBinaryLinksNetHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("lists the dependencies of every program")
	}
	for _, pkg := range programs {
		out, err := exec.Command("go", "list", "-deps", pkg).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", pkg, err)
		}
		for _, dep := range strings.Fields(string(out)) {
			if dep == "net/http" {
				t.Errorf("%s links net/http; `go list -deps %s` lists its dependencies", pkg, pkg)
			}
		}
	}
}

// unlinkedAllowed names the internal declarations that may link into no
// program, each with the reason it stays. A key is a file (every
// unlinked declaration in it), "pkg.Func", "pkg.Type" (every method of
// the type), "pkg.Type.Method", or "*.Method" (that method on every
// type).
var unlinkedAllowed = map[string]string{
	"internal/clitest/clitest.go":        "test helper package: only _test.go files import it",
	"*.CurrentRate":                      "netsim.FlowCC method; bench/wrap.go forwards it until ROADMAP 13(c) drops the forwarder",
	"roccnet.NewFlowCC":                  "the rocc.NewRoCCFlowCC facade function builds its reaction point with it",
	"adversary.Policer.ForceQuarantine":  "chaos's TestFairnessExcludesQuarantinedFlows quarantines flows without a detection",
	"netsim.Port.LinkDown":               "faults tests read the host end of a link",
	"chaos.Load":                         "loads a soak repro in a test, as EXPERIMENTS.md documents",
	"chaos.decode":                       "Load's parser; FuzzScenario covers it",
	"internal/flowtable/afd.go":          "§3.4 alternative table, scored by ROADMAP 17(ii)",
	"internal/flowtable/bounded.go":      "§3.4 alternative table, scored by ROADMAP 17(ii)",
	"internal/flowtable/bubblecache.go":  "§3.4 alternative table, scored by ROADMAP 17(ii)",
	"internal/flowtable/elephanttrap.go": "§3.4 alternative table, scored by ROADMAP 17(ii)",
	"flowtable.orderedSet":               "insertion-ordered set of the §3.4 alternative tables",
	"flowtable.newOrderedSet":            "insertion-ordered set of the §3.4 alternative tables",
}

// TestEveryFunctionIsLinked builds every program with inlining off and
// fails on each function or method declared in a default-build file
// under internal/ that none of them links, unless unlinkedAllowed names
// it. A declaration no program links is code only tests run. It also
// fails on an allowlist entry that matches nothing, so the list shrinks
// as its entries go.
func TestEveryFunctionIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every program")
	}
	dir := t.TempDir()
	build := exec.Command("go", append([]string{"build", "-gcflags=all=-l", "-o", dir + "/"}, programs...)...)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	linked := map[string]bool{}
	bins, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(bins) != len(programs) {
		t.Fatalf("built %v (err %v), want %d programs", bins, err, len(programs))
	}
	for _, bin := range bins {
		out, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", bin, err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if name, ok := textSymbol(sc.Text()); ok {
				linked[name] = true
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}

	list, err := exec.Command("go", "list", "-f", "{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \"\\t\"}}", "./internal/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	used := map[string]bool{}
	var unlinked []string
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(string(list)), "\n") {
		f := strings.Split(line, "\t")
		path, pkgDir := f[0], f[1]
		for _, file := range f[2:] {
			syntax, err := parser.ParseFile(fset, filepath.Join(pkgDir, file), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			rel := "internal/" + strings.TrimPrefix(path, "rocc/internal/") + "/" + file
			for _, decl := range syntax.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
					continue
				}
				name, recv := fn.Name.Name, receiverType(fn)
				qual := name
				if recv != "" {
					qual = recv + "." + name
				}
				// The linker names a method on T "T.M" or, with a pointer
				// receiver, "(*T).M".
				if linked[path+"."+qual] || linked[path+".(*"+recv+")."+name] {
					continue
				}
				pkg := filepath.Base(path)
				keys := []string{rel, pkg + "." + qual}
				if recv != "" {
					keys = append(keys, pkg+"."+recv, "*."+name)
				}
				allowed := false
				for _, k := range keys {
					if _, ok := unlinkedAllowed[k]; ok {
						used[k], allowed = true, true
					}
				}
				if !allowed {
					unlinked = append(unlinked, fmt.Sprintf("%s:%d: %s.%s", rel, fset.Position(fn.Pos()).Line, pkg, qual))
				}
			}
		}
	}
	sort.Strings(unlinked)
	for _, u := range unlinked {
		t.Errorf("no program links %s", u)
	}
	for k := range unlinkedAllowed {
		if !used[k] {
			t.Errorf("unlinkedAllowed entry %q matches no unlinked declaration: remove it", k)
		}
	}
	if len(unlinkedAllowed) > 13 {
		t.Errorf("unlinkedAllowed has %d entries, want at most 13", len(unlinkedAllowed))
	}
}

// textSymbol returns the name of a text symbol on one line of `go tool
// nm` output ("addr T name"), with every [...] instantiation suffix of a
// generic function or type removed. The name is everything after the
// type letter, since shape names such as go.shape.struct { A int } hold
// spaces; brackets are removed by depth, since they nest.
func textSymbol(line string) (string, bool) {
	f := strings.SplitN(strings.TrimSpace(line), " ", 3)
	if len(f) != 3 || (f[1] != "T" && f[1] != "t") {
		return "", false
	}
	var b strings.Builder
	depth := 0
	for _, r := range f[2] {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String(), true
}

func TestTextSymbol(t *testing.T) {
	for _, c := range []struct {
		line, want string
		ok         bool
	}{
		{`  570460 T rocc/internal/harness.Run[go.shape.string,go.shape.struct { Protocol rocc/internal/experiments.Protocol; D [6]float64 }]`,
			"rocc/internal/harness.Run", true},
		{`  52dae0 T rocc/internal/harness.Run[go.shape.int,go.shape.struct { Index int "json:\"index\""; Err string "json:\"err,omitempty\"" }].func1`,
			"rocc/internal/harness.Run.func1", true},
		{`  4f1c20 T rocc/internal/ringq.(*Queue[go.shape.*uint8]).Len`, "rocc/internal/ringq.(*Queue).Len", true},
		{`  5b2e40 T rocc/internal/netsim.(*Port).kick`, "rocc/internal/netsim.(*Port).kick", true},
		{`  4019a0 t runtime.memequal64`, "runtime.memequal64", true},
		{`  603b40 R rocc/internal/harness..dict.Run[int,rocc/internal/chaos.Verdict]`, "", false},
		{`         U runtime.morestack`, "", false},
	} {
		got, ok := textSymbol(c.line)
		if got != c.want || ok != c.ok {
			t.Errorf("textSymbol(%q) = %q, %v; want %q, %v", c.line, got, ok, c.want, c.ok)
		}
	}
}

// receiverType is the name of fn's receiver type without its pointer or
// type parameters, or "" for a function.
func receiverType(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	return typ.(*ast.Ident).Name
}

// unreadAllowed names the internal struct fields that no program may
// read, each with the reason it stays, in unlinkedAllowed's key format:
// a file (every unread field declared in it), "pkg.Type" (every field of
// the type) or "pkg.Type.Field".
var unreadAllowed = map[string]string{
	"internal/clitest/clitest.go":        "test helper package: only _test.go files import it",
	"internal/flowtable/bounded.go":      "§3.4 alternative table, scored by ROADMAP 17(ii)",
	"internal/flowtable/bubblecache.go":  "§3.4 alternative table, scored by ROADMAP 17(ii)",
	"internal/flowtable/elephanttrap.go": "§3.4 alternative table, scored by ROADMAP 17(ii)",
	"testbed.Result.CNPs":                "TestScenarioRun's proof, in CI's race step, that the CP loop ran",
}

// TestEveryFieldIsRead type-checks the default-build, non-test files of
// every package the programs link and fails on each struct field
// declared under internal/ that none of those files reads, unless
// unreadAllowed names it. A field only written, or read only by tests,
// is state no program uses. It also fails on an allowlist entry that
// matches nothing.
func TestEveryFieldIsRead(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks every program")
	}
	args := append([]string{"list", "-deps", "-export", "-json"}, programs...)
	out, err := exec.Command("go", append(args, "./internal/...")...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	type listed struct {
		ImportPath, Dir, Export string
		Standard, DepOnly       bool
		GoFiles, Imports        []string
	}
	var pkgs []*listed
	byPath := map[string]*listed{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listed)
		if err := dec.Decode(p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
		byPath[p.ImportPath] = p
	}
	// Only the packages some program links read fields for it.
	linked := map[string]bool{}
	var visit func(string)
	visit = func(path string) {
		if p := byPath[path]; p != nil && !linked[path] {
			linked[path] = true
			for _, imp := range p.Imports {
				visit(imp)
			}
		}
	}
	for _, p := range pkgs {
		if !p.DepOnly && !strings.HasPrefix(p.ImportPath, "rocc/internal/") {
			visit(p.ImportPath)
		}
	}

	fset := token.NewFileSet()
	export := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(byPath[path].Export)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return export.Import(path)
	})
	read := map[*types.Var]bool{}
	var fields []declaredField
	// go list -deps lists every package after its dependencies.
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		if linked[p.ImportPath] {
			markReads(files, info, read)
		}
		if strings.HasPrefix(p.ImportPath, "rocc/internal/") {
			fields = append(fields, structFields(fset, files, info)...)
		}
	}

	used := map[string]bool{}
	var unread []string
	nUnread := 0
	for _, f := range fields {
		if read[f.v] {
			continue
		}
		nUnread++
		rel := f.file[strings.Index(f.file, "/internal/")+1:]
		pkg := f.v.Pkg().Name()
		allowed := false
		for _, k := range []string{rel, pkg + "." + f.typ, pkg + "." + f.typ + "." + f.v.Name()} {
			if _, ok := unreadAllowed[k]; ok {
				used[k], allowed = true, true
			}
		}
		if !allowed {
			unread = append(unread, fmt.Sprintf("%s:%d: %s.%s.%s", rel, f.line, pkg, f.typ, f.v.Name()))
		}
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("no program reads %s", u)
	}
	for k := range unreadAllowed {
		if !used[k] {
			t.Errorf("unreadAllowed entry %q matches no unread field: remove it", k)
		}
	}
	if len(unreadAllowed) > 6 {
		t.Errorf("unreadAllowed has %d entries, want at most 6", len(unreadAllowed))
	}
	t.Logf("%d of %d fields unread", nUnread, len(fields))
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// declaredField is a field of a struct type declared at file:line; typ
// names the declared type, with the path of field names to a field of
// a nested struct type literal.
type declaredField struct {
	v         *types.Var
	typ, file string
	line      int
}

// structFields lists the fields of every struct type declared in files,
// except embedded fields and fields with a tag, which reflection or an
// encoder reads.
func structFields(fset *token.FileSet, files []*ast.File, info *types.Info) []declaredField {
	var out []declaredField
	var walk func(typ string, st *ast.StructType)
	walk = func(typ string, st *ast.StructType) {
		for _, fl := range st.Fields.List {
			if len(fl.Names) == 0 || fl.Tag != nil {
				continue
			}
			for _, name := range fl.Names {
				pos := fset.Position(name.Pos())
				out = append(out, declaredField{info.Defs[name].(*types.Var), typ, pos.Filename, pos.Line})
			}
			if inner, ok := fl.Type.(*ast.StructType); ok {
				walk(typ+"."+fl.Names[0].Name, inner)
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				if st, ok := ts.Type.(*ast.StructType); ok {
					walk(ts.Name.Name, st)
				}
			}
			return true
		})
	}
	return out
}

// markReads adds to read the origin of every struct field that files
// read. A selector x.f reads f unless it is in a write position: the
// whole left side of an assignment, the operand of ++ or --, or x.f as
// the first argument of an append assigned back to x.f. A composite
// literal key writes its field. Every field of a struct type, and every
// field of those fields through slices, arrays and maps but not pointers,
// is read when a value of the type is a map key, is compared with == or
// !=, or is passed to a parameter of type any (unless it has a String or
// Error method, which fmt would call instead).
func markReads(files []*ast.File, info *types.Info, read map[*types.Var]bool) {
	seen := map[types.Type]bool{}
	var readAll func(types.Type)
	readAll = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				read[u.Field(i).Origin()] = true
				readAll(u.Field(i).Type())
			}
		case *types.Slice:
			readAll(u.Elem())
		case *types.Array:
			readAll(u.Elem())
		case *types.Map:
			readAll(u.Key())
			readAll(u.Elem())
		}
	}
	// == compares a struct or an array element by element.
	compared := func(t types.Type) {
		switch t.Underlying().(type) {
		case *types.Struct, *types.Array:
			readAll(t)
		}
	}
	writes := map[ast.Expr]bool{}
	var sels []*ast.SelectorExpr
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				if m, ok := info.Types[e].Type.(*types.Map); ok {
					compared(m.Key())
				}
			}
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sels = append(sels, n)
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					writes[ast.Unparen(lhs)] = true
					if len(n.Lhs) != len(n.Rhs) {
						continue
					}
					if call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr); ok && len(call.Args) > 0 && isBuiltin(info, call.Fun, "append") &&
						types.ExprString(call.Args[0]) == types.ExprString(lhs) {
						writes[ast.Unparen(call.Args[0])] = true
					}
				}
			case *ast.IncDecStmt:
				writes[ast.Unparen(n.X)] = true
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					compared(info.TypeOf(n.X))
				}
			case *ast.CallExpr:
				sig, ok := info.TypeOf(n.Fun).(*types.Signature)
				if !ok {
					break
				}
				for i, arg := range n.Args {
					var param types.Type
					switch np := sig.Params().Len(); {
					case sig.Variadic() && i >= np-1 && !n.Ellipsis.IsValid():
						param = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
					case i < np:
						param = sig.Params().At(i).Type()
					}
					// fmt prints a value through its String or Error
					// method when it has one.
					if iface, ok := param.(*types.Interface); ok && iface.Empty() && !hasMethod(info.TypeOf(arg), "String", "Error") {
						readAll(info.TypeOf(arg))
					}
				}
			}
			return true
		})
	}
	for _, sel := range sels {
		if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal && !writes[sel] {
			read[s.Obj().(*types.Var).Origin()] = true
		}
	}
}

// hasMethod reports whether t or *t has a method of one of the names.
func hasMethod(t types.Type, names ...string) bool {
	ms := types.NewMethodSet(types.NewPointer(t))
	for _, name := range names {
		if ms.Lookup(nil, name) != nil {
			return true
		}
	}
	return false
}

// isBuiltin reports whether fun names the predeclared function name.
func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// TestFieldReads checks markReads on literal source: each field's name
// says how the package uses it, and only the names starting with "read"
// may come out read. The _test.go file's selector must not count.
func TestFieldReads(t *testing.T) {
	const src = `package p

type S struct {
	assigned, tupled, opAssigned, inc, dec, keyed int
	appendedBack                                  []int

	readCopied, readPassed, readAddressed int
	readCalled                            M
	readIndexed, readAppendedElsewhere    []int
	inTestOnly                        int

	Tagged int ` + "`json:\"tagged\"`" + `
	M
}

type M struct{}

func (M) m() {}

type (
	MapKey   struct{ readKey int }
	Compared struct{ readCompared int }
	Printed  struct{ readPrinted int }
	Stringer struct{ formatted int }
	Gen[E any] struct{ readGeneric E }
)

func (Stringer) String() string { return "" }

func g(int)  {}
func use(any) {}

func f(x *S, i int) []int {
	x.assigned = 1
	x.tupled, i = 2, 3
	x.opAssigned += 4
	x.inc++
	x.dec--
	_ = S{keyed: 5}
	x.appendedBack = append(x.appendedBack, 6)

	y := x.readCopied
	g(x.readPassed)
	_ = &x.readAddressed
	x.readCalled.m()
	x.readIndexed[i] = y
	_ = map[MapKey]bool{}
	_ = Compared{} == Compared{}
	use(Printed{})
	use(Stringer{})
	var gen Gen[int]
	return append(x.readAppendedElsewhere, gen.readGeneric)
}
`
	const testSrc = `package p

func h(x *S) int { return x.inTestOnly }
`
	fset := token.NewFileSet()
	var files []*ast.File
	for name, s := range map[string]string{"p.go": src, "p_test.go": testSrc} {
		f, err := parser.ParseFile(fset, name, s, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	if _, err := (&types.Config{}).Check("p", fset, files, info); err != nil {
		t.Fatal(err)
	}
	var code []*ast.File
	for _, f := range files {
		if !strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
			code = append(code, f)
		}
	}
	read := map[*types.Var]bool{}
	markReads(code, info, read)
	fields := structFields(fset, code, info)
	if len(fields) != 19 {
		t.Errorf("found %d fields, want 19 (embedded and tagged fields are read by definition)", len(fields))
	}
	for _, f := range fields {
		if want := strings.HasPrefix(f.v.Name(), "read"); read[f.v] != want {
			t.Errorf("%s.%s: read %v, want %v", f.typ, f.v.Name(), read[f.v], want)
		}
	}
}
