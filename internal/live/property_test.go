// Property suite: a short fixed-round budget of the store and durable
// interpreters held to fresh builds through one script, and of the
// deterministic failpoint crash checks, run as part of this package's
// ordinary tests. cmd/checker soaks the same checks for arbitrarily longer.
//
// External test package (live_test) because internal/check imports live.
// The failpoint checks arm and reset the process-global failpoint
// registry, so they must not run in parallel with each other or with
// anything else that journals — runLiveProperty stays serial.
package live_test

import (
	"testing"

	"spatialhist/internal/check"
)

func runLiveProperty(t *testing.T, name string) {
	t.Helper()
	c, ok := check.Named(name)
	if !ok {
		t.Fatalf("harness lost the %s check", name)
	}
	rounds := 2
	if testing.Short() {
		rounds = 1
	}
	if d := check.Run(c, 2002, rounds); d != nil {
		t.Fatalf("divergence:\n%s", d)
	}
}

func TestStoreVsFreshProperty(t *testing.T) { runLiveProperty(t, "store-vs-fresh") }

func TestDurableVsFreshProperty(t *testing.T) { runLiveProperty(t, "durable-vs-fresh") }

func TestWALCrashBoundaryProperty(t *testing.T) { runLiveProperty(t, "wal-crash-boundary") }

func TestCheckpointCrashProperty(t *testing.T) { runLiveProperty(t, "checkpoint-crash") }

func TestFsyncFailureProperty(t *testing.T) { runLiveProperty(t, "fsync-failure") }
