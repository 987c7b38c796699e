// Property suite: a short fixed-round budget of the verification harness
// checks whose subject lives in this package — the estimator-vs-exact
// oracle, the tile-map sweeps held to a per-tile loop through one script,
// and all four paper-derived metamorphic properties. cmd/checker soaks the
// same checks for arbitrarily longer.
//
// External test package (core_test) because internal/check imports core.
package core_test

import (
	"testing"

	"spatialhist/internal/check"
)

func runProperty(t *testing.T, name string) {
	t.Helper()
	c, ok := check.Named(name)
	if !ok {
		t.Fatalf("harness lost the %s check", name)
	}
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	if d := check.Run(c, 2002, rounds); d != nil {
		t.Fatalf("divergence:\n%s", d)
	}
}

func TestEstimatorVsExactProperty(t *testing.T) { runProperty(t, "estimator-vs-exact") }
func TestSweepsVsPerTileProperty(t *testing.T)  { runProperty(t, "sweeps-vs-per-tile") }
func TestConservationProperty(t *testing.T)     { runProperty(t, "conservation") }
func TestTranslationProperty(t *testing.T)      { runProperty(t, "translation") }
func TestRefinementProperty(t *testing.T)       { runProperty(t, "refinement") }
func TestErrorCollapseProperty(t *testing.T)    { runProperty(t, "error-collapse") }
