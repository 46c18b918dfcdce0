package engine

import (
	"sync"
	"testing"
	"time"

	"mpq/internal/authz"
	"mpq/internal/exec"
	"mpq/internal/tpch"
)

// TestConcurrentSequentialWithUDFs runs concurrent queries with
// network-wide UDFs configured: the runtime merges UDFs into each fragment
// executor's registry, which must be private per run (regression: clones
// once shared the registry map and concurrent runs raced on it).
func TestConcurrentSequentialWithUDFs(t *testing.T) {
	cfg := testConfig(t, tpch.UAPenc)
	cfg.UDFs = map[string]exec.UDFFunc{
		"noop": func(args []exec.Value) (exec.Value, error) { return args[0], nil },
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q6 := querySQL(t, 6)
	if _, err := eng.Query(q6); err != nil { // warm the cache: runs share one network
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := eng.Query(q6); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestQueryRacesGrantRevoke hammers Query from several clients while
// another goroutine toggles the providers' authorization on lineitem, and
// verifies the staleness invariant: a plan assigning operations to a
// provider must never be served under an authorization version at which the
// providers were revoked. Run under -race this also exercises the
// engine's locking (plan admission vs policy mutation, cache flushes,
// concurrent cloned executions).
func TestQueryRacesGrantRevoke(t *testing.T) {
	cfg := testConfig(t, tpch.UAPenc)
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q6 := querySQL(t, 6)

	rel := cfg.Catalog.Relation("lineitem")
	all := make([]string, len(rel.Columns))
	for i, c := range rel.Columns {
		all[i] = c.Name
	}
	isProvider := func(s authz.Subject) bool {
		for _, p := range tpch.Providers() {
			if s == p {
				return true
			}
		}
		return false
	}

	// providersAllowed records, per authorization version, whether the
	// providers held the lineitem default when that version was created.
	// The toggler writes each new version's state before releasing stateMu,
	// and clients read only after Query returns, so a version is always
	// recorded by the time a response naming it is checked.
	var stateMu sync.Mutex
	providersAllowed := map[uint64]bool{eng.AuthzVersion(): true}

	const (
		clients    = 4
		iterations = 12
	)
	var wg, togglerWg sync.WaitGroup
	clientsDone := make(chan struct{})

	// The toggler keeps flipping the authorization for as long as clients
	// are querying, pausing briefly so plans are admitted in both states.
	togglerWg.Add(1)
	go func() {
		defer togglerWg.Done()
		allowed := true
		for {
			select {
			case <-clientsDone:
				return
			case <-time.After(50 * time.Millisecond):
			}
			stateMu.Lock()
			if allowed {
				v, revoked := eng.Revoke("lineitem", authz.Any)
				if !revoked {
					stateMu.Unlock()
					t.Error("revoke found no authorization to remove")
					return
				}
				providersAllowed[v] = false
			} else {
				v, err := eng.Grant("lineitem", authz.Any, nil, all)
				if err != nil {
					stateMu.Unlock()
					t.Errorf("grant: %v", err)
					return
				}
				providersAllowed[v] = true
			}
			allowed = !allowed
			stateMu.Unlock()
		}
	}()

	var observedProviderPlans int
	var obsMu sync.Mutex
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				resp, err := eng.Query(q6)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				usesProvider := false
				for _, s := range resp.Executors {
					if isProvider(s) {
						usesProvider = true
					}
				}
				stateMu.Lock()
				allowed, known := providersAllowed[resp.AuthzVersion]
				stateMu.Unlock()
				if !known {
					t.Errorf("response names unknown authorization version %d", resp.AuthzVersion)
					return
				}
				if usesProvider && !allowed {
					t.Errorf("stale plan: providers assigned work under version %d, at which they were revoked", resp.AuthzVersion)
					return
				}
				if usesProvider {
					obsMu.Lock()
					observedProviderPlans++
					obsMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	close(clientsDone)
	togglerWg.Wait()
	t.Logf("observed %d provider-assigned plans during the race", observedProviderPlans)

	// Deterministic non-vacuity: after the dust settles, a revoked state
	// must exclude providers and a granted state must re-admit them (the
	// optimizer provably uses a provider for Q6 under UAPenc).
	stateMu.Lock()
	defer stateMu.Unlock()
	eng.Revoke("lineitem", authz.Any) // idempotent: after this the rule is absent
	resp, err := eng.Query(q6)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range resp.Executors {
		if isProvider(s) {
			t.Fatalf("revoked state still assigns provider %s", s)
		}
	}
	if _, err := eng.Grant("lineitem", authz.Any, nil, all); err != nil {
		t.Fatal(err)
	}
	resp, err = eng.Query(q6)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range resp.Executors {
		if isProvider(s) {
			found = true
		}
	}
	if !found {
		t.Fatal("granted state never assigns a provider: the race test would be vacuous")
	}
}
