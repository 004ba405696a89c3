package rocc_test

import (
	"os/exec"
	"strings"
	"testing"
)

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
	for _, pkg := range []string{"./cmd/roccsim", "./bench", "./cmd/rocclab", "./cmd/roccp4", "./examples/quickstart"} {
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
