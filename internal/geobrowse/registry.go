// Multi-tenant serving: one geobrowse process fronting many named
// datasets ("tenants") behind /api/{tenant}/... routing.
//
// A Registry holds the tenant table. Tenants are declared up front with a
// loader but built lazily on first touch, so a process configured with
// hundreds of datasets only pays for the ones traffic actually reaches.
// Loaded tenants sit in an LRU ordered by last touch; when their summed
// estimator footprint exceeds a memory budget the coldest tenants are
// evicted — their per-tenant server (estimator, browse cache) is dropped
// and rebuilt by the loader on the next touch. Loaders must be
// deterministic: an evict/reload round trip must serve bit-identical
// estimates, which internal/check enforces as a differential oracle.
//
// All tenants share one admission Limiter (so CPU bounds and fairness
// span the process), while each keeps its own browse cache partition and
// tenant-labelled metrics.

package geobrowse

import (
	"container/list"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"spatialhist/internal/core"
	"spatialhist/internal/telemetry"
)

// ErrUnknownTenant marks Resolve failures for names the registry was
// never configured with — a routing error (404), as opposed to a
// configured tenant whose loader failed (500).
var ErrUnknownTenant = errors.New("unknown tenant")

// TenantConfig declares one tenant: a routing name and a deterministic
// loader that builds (or rebuilds, after eviction) its estimator.
type TenantConfig struct {
	Name string
	Load func() (core.Estimator, error)
}

// RegistryOptions tunes a Registry.
type RegistryOptions struct {
	// MemoryBudget bounds the summed estimator footprint of loaded
	// tenants, in bytes (their lattices' resident bytes). When a load pushes
	// the total past the budget, least-recently-touched tenants are
	// evicted until it fits (the tenant being loaded is never evicted,
	// so a single oversized tenant still serves). 0 means unlimited.
	MemoryBudget int64
	// Server is the per-tenant serving configuration; Tenant is managed
	// by the registry.
	Server Options
}

// tenant is one registry entry. srv and est are nil while unloaded;
// loading is serialized per tenant by mu so concurrent first touches build
// once.
type tenant struct {
	cfg   TenantConfig
	mu    sync.Mutex
	srv   *Server
	est   core.Estimator // what srv serves
	bytes int64
	el    *list.Element // position in Registry.lru while loaded
}

// Registry resolves tenant names to their per-tenant servers, loading
// lazily and evicting LRU-first under the memory budget.
type Registry struct {
	opts    RegistryOptions
	tenants map[string]*tenant

	mu      sync.Mutex // guards lru, loadedB and every tenant's srv/est/el
	lru     *list.List // front = most recently touched *tenant
	loadedB int64

	mLoads, mEvictions *telemetry.Counter
	mLoaded            *telemetry.Gauge
	mBytes             *telemetry.Gauge
}

// NewRegistry builds a Registry over the given tenants. Tenant names must
// be unique and non-empty.
func NewRegistry(tenants []TenantConfig, opts RegistryOptions) (*Registry, error) {
	opts.Server = opts.Server.withDefaults()
	reg := opts.Server.Telemetry
	r := &Registry{
		opts:    opts,
		tenants: make(map[string]*tenant, len(tenants)),
		lru:     list.New(),
		mLoads: reg.Counter("geobrowse_tenant_loads_total",
			"Tenant estimator builds (first touch or reload after eviction)."),
		mEvictions: reg.Counter("geobrowse_tenant_evictions_total",
			"Tenants evicted by the registry memory budget."),
		mLoaded: reg.Gauge("geobrowse_tenants_loaded",
			"Tenants currently resident."),
		mBytes: reg.Gauge("geobrowse_tenant_bytes",
			"Summed estimator footprint of resident tenants in bytes."),
	}
	for _, tc := range tenants {
		if tc.Name == "" || tc.Load == nil {
			return nil, fmt.Errorf("geobrowse: tenant %q needs a name and a loader", tc.Name)
		}
		if _, dup := r.tenants[tc.Name]; dup {
			return nil, fmt.Errorf("geobrowse: duplicate tenant %q", tc.Name)
		}
		r.tenants[tc.Name] = &tenant{cfg: tc}
	}
	return r, nil
}

// Tenants returns the configured tenant names, sorted.
func (r *Registry) Tenants() []string {
	names := make([]string, 0, len(r.tenants))
	for name := range r.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Stats reports configured and currently loaded tenant counts and the
// resident estimator bytes.
func (r *Registry) Stats() (configured, loaded int, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.tenants), r.lru.Len(), r.loadedB
}

// estimatorBytes is an estimator's resident footprint as the tenant budget
// charges it: the lattices it serves from, at their cells' real width — 4
// bytes per bucket unless a histogram outgrew them — which dominate
// everything else a tenant holds. Estimators that
// are not lattice-backed (the baselines) keep int64 counters.
func estimatorBytes(est core.Estimator) int64 {
	if s, ok := est.(core.LatticeSizer); ok {
		return int64(s.LatticeBytes())
	}
	return int64(est.StorageBuckets()) * 8
}

// Resolve returns a tenant's server and the estimator it serves — a fixed
// summary, so it holds no pin — loading them on first touch (or after
// eviction) and marking the tenant most recently used.
func (r *Registry) Resolve(name string) (*Server, core.Estimator, error) {
	t, ok := r.tenants[name]
	if !ok {
		return nil, nil, fmt.Errorf("geobrowse: %w %q", ErrUnknownTenant, name)
	}
	// Serialize loading per tenant: one flight builds, concurrent
	// touches wait on the same build rather than duplicating it.
	t.mu.Lock()
	defer t.mu.Unlock()
	r.mu.Lock()
	if t.srv != nil {
		r.lru.MoveToFront(t.el)
		srv, est := t.srv, t.est
		r.mu.Unlock()
		return srv, est, nil
	}
	r.mu.Unlock()

	est, err := t.cfg.Load()
	if err != nil {
		return nil, nil, fmt.Errorf("geobrowse: loading tenant %q: %w", name, err)
	}
	opts := r.opts.Server
	opts.Tenant = name
	srv := New(name, StaticSource(est), opts)
	r.mLoads.Inc()

	r.mu.Lock()
	t.srv, t.est = srv, est
	t.bytes = estimatorBytes(est)
	t.el = r.lru.PushFront(t)
	r.loadedB += t.bytes
	r.evictLocked(t)
	r.mLoaded.Set(int64(r.lru.Len()))
	r.mBytes.Set(r.loadedB)
	r.mu.Unlock()
	return srv, est, nil
}

// evictLocked drops least-recently-touched tenants until the resident
// footprint fits the budget, never evicting keep (the tenant that just
// loaded). Evicted tenants rebuild on their next touch.
func (r *Registry) evictLocked(keep *tenant) {
	if r.opts.MemoryBudget <= 0 {
		return
	}
	for r.loadedB > r.opts.MemoryBudget && r.lru.Len() > 1 {
		oldest := r.lru.Back()
		t := oldest.Value.(*tenant)
		if t == keep {
			// keep is the only remaining candidate ordering-wise; with
			// lru.Len() > 1 it cannot be Back unless everything newer
			// was already evicted this pass.
			return
		}
		r.lru.Remove(oldest)
		r.loadedB -= t.bytes
		t.srv, t.est, t.el, t.bytes = nil, nil, nil, 0
		r.mEvictions.Inc()
	}
}

// MultiServer is the HTTP front of a Registry: it routes
// /api/{tenant}/... to the tenant's server, exposes the shared /metrics
// registry, and answers /healthz for the whole process.
type MultiServer struct {
	reg   *Registry
	mux   *http.ServeMux
	join  *joinFront
	drain atomic.Bool
}

// NewMultiServer builds the routing front over a Registry.
func NewMultiServer(reg *Registry) *MultiServer {
	s := &MultiServer{reg: reg, mux: http.NewServeMux(), join: newJoinFront(reg)}
	s.mux.HandleFunc("/api/{tenant}/{rest...}", s.handleTenant)
	// The literal route wins over /api/{tenant}/... for the exact path.
	s.mux.HandleFunc("POST /api/join", s.handleJoin)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /{$}", s.handleIndex)
	s.mux.Handle("GET /metrics", reg.opts.Server.Telemetry.Handler())
	return s
}

// ServeHTTP implements http.Handler.
func (s *MultiServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// StartDrain flips /healthz to 503 ahead of a graceful shutdown.
func (s *MultiServer) StartDrain() { s.drain.Store(true) }

// handleTenant resolves the tenant and forwards the request to its
// server with the tenant prefix stripped, so tenant servers keep their
// ordinary /api/... route table.
func (s *MultiServer) handleTenant(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	srv, _, err := s.reg.Resolve(name)
	if err != nil {
		// An unconfigured name is the client's mistake; a configured
		// tenant whose loader failed is ours, and must not hide as 404.
		code := http.StatusInternalServerError
		if errors.Is(err, ErrUnknownTenant) {
			code = http.StatusNotFound
		}
		http.Error(w, err.Error(), code)
		return
	}
	r2 := r.Clone(r.Context())
	r2.URL.Path = "/api/" + r.PathValue("rest")
	r2.URL.RawPath = ""
	srv.ServeHTTP(w, r2)
}

// handleHealthz reports process readiness and the loaded tenant count.
func (s *MultiServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	_, loaded, _ := s.reg.Stats()
	h := Health{Status: "ok", Tenants: loaded}
	if s.drain.Load() {
		h.Status = "draining"
	}
	writeHealth(w, h)
}

// handleIndex lists the configured tenants and their API roots.
func (s *MultiServer) handleIndex(w http.ResponseWriter, r *http.Request) {
	type tenantInfo struct {
		Name string `json:"name"`
		API  string `json:"api"`
	}
	names := s.reg.Tenants()
	out := struct {
		Tenants []tenantInfo `json:"tenants"`
	}{Tenants: make([]tenantInfo, 0, len(names))}
	for _, n := range names {
		out.Tenants = append(out.Tenants, tenantInfo{Name: n, API: "/api/" + n + "/"})
	}
	WriteJSON(w, out)
}
