package check

import (
	"fmt"

	"spatialhist/internal/check/gen"
	"spatialhist/internal/core"
	"spatialhist/internal/geobrowse"
	"spatialhist/internal/grid"
	"spatialhist/internal/telemetry"
)

// runRegistryEvictReload verifies the multi-tenant registry's central
// promise: eviction is invisible to correctness. A tenant rebuilt by its
// loader after being evicted under memory pressure must estimate
// bit-identically to its first incarnation — otherwise the memory budget
// silently changes query answers, the worst kind of cache bug.
//
// The check builds a few deterministic tenants over random datasets,
// records every tenant's estimates over a shared query set, then forces
// eviction churn with a budget that fits only one tenant and touches
// tenants round-robin, re-comparing the estimates of every reloaded
// incarnation against the recording.
func runRegistryEvictReload(seed int64) *Divergence {
	r := gen.Rand(seed)
	g := gen.Grid(r, 40, 40)
	const nTenants = 3

	mks := paperEstimators(r, g)
	mk := mks[r.Intn(len(mks))]

	type tenantData struct {
		name string
		est  core.Estimator
	}
	var loads [nTenants]int
	tenants := make([]geobrowse.TenantConfig, nTenants)
	baselines := make([]tenantData, nTenants)
	for i := 0; i < nTenants; i++ {
		rects := gen.Rects(gen.Rand(seed+int64(i)+1), g, 30+r.Intn(120), gen.RectOpts{})
		i := i
		tenants[i] = geobrowse.TenantConfig{
			Name: fmt.Sprintf("t%d", i),
			Load: func() (core.Estimator, error) {
				loads[i]++
				return mk.mk(rects), nil
			},
		}
		baselines[i] = tenantData{name: tenants[i].Name, est: mk.mk(rects)}
	}

	queries := randQueries(r, g, 24)

	// Budget sized to the largest single tenant: at most one stays
	// resident, so round-robin touching forces an evict/reload per touch.
	var maxBytes int64
	for _, b := range baselines {
		if v := int64(b.est.StorageBuckets()) * 8; v > maxBytes {
			maxBytes = v
		}
	}
	reg, err := geobrowse.NewRegistry(tenants, geobrowse.RegistryOptions{
		MemoryBudget: maxBytes,
		Server:       geobrowse.Options{Telemetry: telemetry.NewRegistry()},
	})
	if err != nil {
		return &Divergence{Check: "registry-evict-reload", Seed: seed,
			Detail: fmt.Sprintf("building registry: %v", err), Grid: gridDesc(g)}
	}

	rounds := 2 + r.Intn(3)
	for round := 0; round < rounds; round++ {
		for i := 0; i < nTenants; i++ {
			srv, err := reg.Resolve(baselines[i].name)
			if err != nil {
				return &Divergence{Check: "registry-evict-reload", Seed: seed,
					Detail: fmt.Sprintf("round %d: resolving %s: %v", round, baselines[i].name, err),
					Grid:   gridDesc(g)}
			}
			est, _, release := srv.AcquireEstimator()
			d := compareTenantEstimates(seed, g, baselines[i].name, round, est, baselines[i].est, queries)
			release()
			if d != nil {
				return d
			}
		}
	}
	// The budget must actually have churned: with capacity for one tenant
	// and round-robin touches, every tenant reloads every round.
	for i, n := range loads {
		if n < 2 {
			return &Divergence{Check: "registry-evict-reload", Seed: seed,
				Detail: fmt.Sprintf("tenant t%d loaded %d times; budget %d never evicted it — the check exercised nothing", i, n, maxBytes),
				Grid:   gridDesc(g)}
		}
	}
	return nil
}

// compareTenantEstimates checks a resident incarnation against the
// baseline estimator, query by query.
func compareTenantEstimates(seed int64, g *grid.Grid, name string, round int,
	got, want core.Estimator, queries []grid.Span) *Divergence {
	for _, q := range queries {
		ge, we := got.Estimate(q), want.Estimate(q)
		if ge != we {
			return &Divergence{
				Check:  "registry-evict-reload",
				Seed:   seed,
				Detail: fmt.Sprintf("tenant %s incarnation of round %d diverged from its first build (%s)", name, round, want.Name()),
				Grid:   gridDesc(g),
				Query:  &q,
				Got:    fmt.Sprintf("%+v", ge),
				Want:   fmt.Sprintf("%+v", we),
			}
		}
	}
	return nil
}
