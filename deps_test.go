package rocc_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
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
	if len(unlinkedAllowed) > 15 {
		t.Errorf("unlinkedAllowed has %d entries, want at most 15", len(unlinkedAllowed))
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
