package analysis

import "testing"

// TestScopesNameLoadedPackages guards the package-scoped policies: a key
// that names no package of the module (one deleted, renamed or misspelt)
// silently drops the package it meant from the policy.
func TestScopesNameLoadedPackages(t *testing.T) {
	// The target list Load type-checks: the module's packages with Go files.
	listed, err := goList("../..", "--", "./...")
	if err != nil {
		t.Fatal(err)
	}
	loaded := map[string]bool{}
	for _, p := range listed {
		if len(p.GoFiles) > 0 {
			loaded[p.ImportPath] = true
		}
	}
	for name, scope := range map[string]map[string]bool{
		"detrand":   detRandScope,
		"errsink":   errSinkScope,
		"int32cast": int32CastScope,
	} {
		for pkg := range scope {
			if !loaded[pkg] {
				t.Errorf("%s scope names %s, which the module load does not return", name, pkg)
			}
		}
	}
}
