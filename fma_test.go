package rocc_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fusedOp matches arm64's fused multiply-add and multiply-subtract
// instructions in the compiler's assembly listing.
var fusedOp = regexp.MustCompile(`\tF(N?M(ADD|SUB))[DS]\t`)

// TestNoFusedMultiplyAdd compiles every package under internal/ and
// cmd/ and the facade for arm64, one of the architectures where the Go
// compiler may fuse x*y + z into one instruction that skips the
// product's rounding, and fails on any fused instruction. amd64 never
// fuses, so each one is a place where the same seed could print other
// bytes on an arm64 machine (DESIGN.md §14). The fix is an explicit
// float64() conversion around the product, which the language
// guarantees rounds it.
//
// The check reads the assembly the compiler prints with -S. The go
// command prints it only when it compiles, not on a build-cache hit, so
// each package is compiled here with go tool compile against export
// data that go list builds and caches.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the module for arm64")
	}
	env := append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	goCmd := func(args ...string) string {
		var stderr bytes.Buffer
		cmd := exec.Command("go", args...)
		cmd.Env, cmd.Stderr = env, &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
		}
		return string(out)
	}
	patterns := []string{"./internal/...", "./cmd/...", "."}
	dir := t.TempDir()
	importcfg := filepath.Join(dir, "importcfg")
	cfg := goCmd(append([]string{"list", "-export", "-deps", "-f",
		"{{with .Export}}packagefile {{$.ImportPath}}={{.}}{{end}}"}, patterns...)...)
	if err := os.WriteFile(importcfg, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs := goCmd(append([]string{"list", "-f",
		"{{if eq .Name \"main\"}}main{{else}}{{.ImportPath}}{{end}} {{.Dir}} {{join .GoFiles \" \"}}"}, patterns...)...)
	var fused []string
	for _, line := range strings.Split(strings.TrimSpace(pkgs), "\n") {
		f := strings.Fields(line)
		args := []string{"tool", "compile", "-S", "-p", f[0], "-importcfg", importcfg, "-o", filepath.Join(dir, "pkg.o")}
		for _, file := range f[2:] {
			args = append(args, filepath.Join(f[1], file))
		}
		fn := ""
		for _, l := range strings.Split(goCmd(args...), "\n") {
			if w := strings.Fields(l); len(w) > 1 && w[1] == "STEXT" {
				fn = w[0]
			} else if fusedOp.MatchString(l) {
				pos := l[strings.Index(l, "(")+1 : strings.Index(l, ")")]
				fused = append(fused, fn+" at "+pos)
			}
		}
	}
	if len(fused) > 0 {
		t.Errorf("%d fused multiply-add instructions for arm64; round each product with float64():\n%s",
			len(fused), strings.Join(fused, "\n"))
	}
}
