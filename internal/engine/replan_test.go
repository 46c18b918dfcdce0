package engine

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"mpq/internal/authz"
	"mpq/internal/cost"
	"mpq/internal/tpch"
)

func adaptiveConfig(t testing.TB, sc tpch.Scenario, factor float64) Config {
	t.Helper()
	cfg := testConfig(t, sc)
	cfg.PlannerMode = PlannerAdaptive
	cfg.ReplanErrorFactor = factor
	cfg.ReplanMinRows = 1 // count every node, the test tables are tiny
	return cfg
}

// TestAdaptiveReplanConverges drives the feedback loop end to end on the
// conformance queries: the first submission self-traces, the second hits the
// cache and — when the observed cardinalities diverge beyond the factor —
// re-plans with them injected as estimator overrides. The re-planned entry
// must return identical rows, carry a bumped generation, and its own traced
// run must show a smaller worst q-error than the estimate it replaced
// (Explain's est-vs-actual delta shrinks).
func TestAdaptiveReplanConverges(t *testing.T) {
	cfg := adaptiveConfig(t, tpch.UAPenc, 1.5)
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	improved := false
	for _, num := range testQueries {
		sqlText := querySQL(t, num)
		r1, pq1, err := eng.query(nil, sqlText, nil, nil)
		if err != nil {
			t.Fatalf("Q%d: %v", num, err)
		}
		obs1 := pq1.observedRows()
		if obs1 == nil {
			t.Fatalf("Q%d: adaptive mode did not self-trace the first run", num)
		}
		before, compared := cost.PlanQError(pq1.result.Extended.Root, obs1, cfg.ReplanMinRows)
		r2, pq2, err := eng.query(nil, sqlText, nil, nil)
		if err != nil {
			t.Fatalf("Q%d (rerun): %v", num, err)
		}
		if !r2.CacheHit {
			t.Fatalf("Q%d: second submission missed the cache", num)
		}
		if g, w := canon(r2.Table), canon(r1.Table); !bytes.Equal(g, w) {
			t.Errorf("Q%d: re-planned result differs\ngot:\n%s\nwant:\n%s", num, g, w)
		}
		if compared == 0 || before <= cfg.ReplanErrorFactor {
			continue // estimates were fine; nothing to re-plan
		}
		if pq2 == pq1 || pq2.replanGen != pq1.replanGen+1 {
			t.Errorf("Q%d: worst q-error %.2f above factor but entry not re-planned (gen %d -> %d)",
				num, before, pq1.replanGen, pq2.replanGen)
			continue
		}
		obs2 := pq2.observedRows()
		if obs2 == nil {
			t.Fatalf("Q%d: re-planned entry did not self-trace", num)
		}
		after, _ := cost.PlanQError(pq2.result.Extended.Root, obs2, cfg.ReplanMinRows)
		t.Logf("Q%d: worst q-error %.2f -> %.2f", num, before, after)
		if after < before {
			improved = true
		}
	}
	if eng.Stats().Replans == 0 {
		t.Fatal("no conformance query triggered a re-plan")
	}
	if !improved {
		t.Error("no re-plan reduced the worst q-error: feedback is not converging")
	}
}

// TestReplanBoundedByGenerationCap hammers one cached entry with a factor
// barely above 1, so any residual estimate error keeps demanding re-plans:
// the generation cap must bound them (no cache ping-pong), and once the
// entry converges further submissions are idempotent — the same prepared
// plan is served unchanged, and mpq_engine_replans_total stops moving.
func TestReplanBoundedByGenerationCap(t *testing.T) {
	eng, err := New(adaptiveConfig(t, tpch.UA, 1.0001))
	if err != nil {
		t.Fatal(err)
	}
	sqlText := querySQL(t, 3)
	runs := maxReplanGen + 6
	var counts []uint64
	var prev *preparedQuery
	for i := 0; i < runs; i++ {
		_, pq, err := eng.query(nil, sqlText, nil, nil)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if pq.replanGen > maxReplanGen {
			t.Fatalf("run %d: generation %d exceeds cap %d", i, pq.replanGen, maxReplanGen)
		}
		if i == runs-1 && pq != prev {
			t.Error("converged entry was swapped again on the final run")
		}
		prev = pq
		counts = append(counts, eng.Stats().Replans)
	}
	total := counts[len(counts)-1]
	if total == 0 {
		t.Fatal("factor ~1 never triggered a re-plan")
	}
	if total > maxReplanGen {
		t.Errorf("%d re-plans of a single entry, cap is %d", total, maxReplanGen)
	}
	if counts[len(counts)-2] != total || counts[len(counts)-3] != total {
		t.Errorf("re-planning did not converge: counter still moving at the tail (%v)", counts)
	}
}

// TestReplanRacesGrantRevoke hammers an adaptive engine (factor ~1, so
// cache hits keep electing re-planners) while a toggler flips the
// providers' lineitem authorization, under -race in CI. The staleness
// invariant extends to re-planned entries: every response must report an
// authorization version at which its executor assignment was legal — a
// re-plan completing after a Grant/Revoke must discard its work, never
// outlive the bump. The deterministic tail then proves no swapped entry
// survives a flush: after one more bump the next submission is a cold miss.
func TestReplanRacesGrantRevoke(t *testing.T) {
	cfg := adaptiveConfig(t, tpch.UAPenc, 1.0001)
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
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

	var stateMu sync.Mutex
	providersAllowed := map[uint64]bool{eng.AuthzVersion(): true}

	const (
		clients    = 4
		iterations = 10
	)
	var wg, togglerWg sync.WaitGroup
	clientsDone := make(chan struct{})
	togglerWg.Add(1)
	go func() {
		defer togglerWg.Done()
		allowed := true
		for {
			select {
			case <-clientsDone:
				return
			case <-time.After(30 * time.Millisecond):
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

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Q3 rides along purely for churn (a second fingerprint being
			// re-planned concurrently); the provider-staleness invariant is
			// checked on Q6 only — it touches nothing but lineitem, so a
			// provider in its executor set can come only from the toggled
			// authorization. Q3 also reads customer and orders, which
			// legitimately keep providers executable at every version.
			for i := 0; i < iterations; i++ {
				for _, num := range []int{3, 6} {
					resp, err := eng.Query(querySQL(t, num))
					if err != nil {
						t.Errorf("Q%d: %v", num, err)
						return
					}
					stateMu.Lock()
					allowed, known := providersAllowed[resp.AuthzVersion]
					stateMu.Unlock()
					if !known {
						t.Errorf("Q%d: response names unknown authorization version %d", num, resp.AuthzVersion)
						return
					}
					if num != 6 {
						continue
					}
					usesProvider := false
					for _, s := range resp.Executors {
						if isProvider(s) {
							usesProvider = true
						}
					}
					if usesProvider && !allowed {
						t.Errorf("Q6: re-planned or cached plan served under version %d, at which providers were revoked",
							resp.AuthzVersion)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(clientsDone)
	togglerWg.Wait()

	// Deterministic tail 1: with the policy quiet, the feedback loop still
	// works — a miss-then-hit pair must re-plan (the race was non-vacuous).
	stateMu.Lock()
	defer stateMu.Unlock()
	eng.Revoke("lineitem", authz.Any)
	if _, err := eng.Grant("lineitem", authz.Any, nil, all); err != nil {
		t.Fatal(err)
	}
	settled := eng.Stats().Replans
	q := querySQL(t, 3)
	if _, err := eng.Query(q); err != nil { // cold: traces
		t.Fatal(err)
	}
	if _, err := eng.Query(q); err != nil { // hit: re-plans
		t.Fatal(err)
	}
	if eng.Stats().Replans <= settled {
		t.Error("no re-plan after the race settled: the concurrency test was vacuous")
	}

	// Deterministic tail 2: a policy bump flushes re-planned entries too;
	// the next submission must prepare cold.
	eng.Revoke("lineitem", authz.Any)
	resp, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Error("re-planned entry outlived an authorization bump: post-revoke submission hit the cache")
	}
	if got, want := resp.AuthzVersion, eng.AuthzVersion(); got != want {
		t.Errorf("post-revoke response reports version %d, current is %d", got, want)
	}
}
