package analysis_test

import (
	"strings"
	"testing"

	"gkmeans/internal/analysis"
	"gkmeans/internal/analysis/analysistest"
)

// Each analyzer runs over a positive fixture (diagnostics expected on the
// lines marked // want) and, where the policy is package-scoped, a negative
// fixture proving out-of-scope packages are exempt. Test files inside the
// fixture directories carry violations with no want markers: the harness
// excludes _test.go exactly like the real driver, so a diagnostic from one
// would fail the test.

func TestDetRand(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.DetRand,
		"gkmeans/internal/kmeans",  // in scope: math/rand import and clock seed flagged
		"gkmeans/internal/router",  // in scope: routing tables persist and must reproduce
		"gkmeans/internal/store",   // in scope: the mutable-store layer is deterministic too
		"gkmeans/internal/dataset", // out of scope: math/rand allowed
	)
}

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.HotAlloc, "hotalloc")
}

func TestPoolPut(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.PoolPut, "poolput")
}

func TestInt32Cast(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Int32Cast,
		"gkmeans/internal/vec",     // in scope: unguarded narrowings flagged
		"gkmeans/internal/metrics", // out of scope: narrowing allowed
	)
}

func TestErrSink(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.ErrSink,
		"gkmeans/internal/knngraph", // in scope: dropped write errors flagged
		"gkmeans/internal/wal",      // in scope: an unlogged WAL write breaks durability
		"gkmeans/internal/server",   // out of scope: HTTP writes exempt
	)
}

// TestSuiteOverRepo is the self-test the CI job relies on: the analyzer
// suite over the real module must be clean. It subsumes `go run ./cmd/gkvet
// ./...` minus the vet pass (CI runs go vet separately).
func TestSuiteOverRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, pkg := range pkgs {
		for _, err := range pkg.Errors {
			t.Errorf("%s: %v", pkg.PkgPath, err)
		}
	}
	diags, err := analysis.RunAnalyzers(pkgs, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s [%s]", pkgs[0].Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	// TestScopesNameLoadedPackages checks that every scoped package loads.
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.PkgPath, "_test") {
			t.Errorf("test package %s leaked into the load", pkg.PkgPath)
		}
	}
}
