package engine

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"mpq/internal/exec"
	"mpq/internal/tpch"
)

// TestMetricsRegistry checks that the registry is the engine's single source
// of truth: Stats (the stable JSON surface) and the Prometheus exposition
// report the same lifecycle counters, phase histograms fill, and the crypto
// and plan-cache bridges surface.
func TestMetricsRegistry(t *testing.T) {
	eng, err := New(testConfig(t, tpch.UAPmix))
	if err != nil {
		t.Fatal(err)
	}
	sqlText := querySQL(t, 6)
	if _, err := eng.Query(sqlText); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(sqlText); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query("select nonsense"); err == nil {
		t.Fatal("malformed query succeeded")
	}

	st := eng.Stats()
	if st.Queries != 3 || st.CacheHits != 1 || st.CacheMisses != 1 || st.Errors != 1 {
		t.Fatalf("stats = %+v, want queries=3 hits=1 misses=1 errors=1", st)
	}
	if st.CachedPlans != 1 {
		t.Errorf("cached plans = %d, want 1", st.CachedPlans)
	}

	snap := eng.Metrics().Snapshot()
	if got := snap["mpq_engine_queries_total"]; got != 3 {
		t.Errorf("snapshot queries_total = %v, want 3", got)
	}
	if got := snap["mpq_engine_plan_cache_requests_total{result=hit}"]; got != 1 {
		t.Errorf("snapshot cache hits = %v, want 1", got)
	}
	if got := snap["mpq_engine_phase_seconds_count{phase=execute}"]; got < 2 {
		t.Errorf("execute phase observations = %v, want >= 2", got)
	}
	if got := snap["mpq_engine_phase_seconds_count{phase=plan}"]; got != 1 {
		t.Errorf("plan phase observations = %v, want 1 (one cold preparation)", got)
	}
	var cryptoOps float64
	for k, v := range snap {
		if strings.HasPrefix(k, "mpq_crypto_values_total") {
			cryptoOps += v
		}
	}
	if cryptoOps == 0 {
		t.Error("no crypto operations surfaced through the registry bridge")
	}

	var buf bytes.Buffer
	if err := eng.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE mpq_engine_queries_total counter",
		`mpq_engine_plan_cache_requests_total{result="hit"} 1`,
		"# TYPE mpq_engine_phase_seconds histogram",
		`mpq_engine_phase_seconds_bucket{phase="execute",le="+Inf"}`,
		"# TYPE mpq_engine_cached_plans gauge",
		"mpq_crypto_values_total{scheme=",
		"mpq_paillier_randomizer_pool_total{result=",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Policy mutations count as cache flushes.
	before := st.Invalidations
	if _, err := eng.Grant("lineitem", "X", []string{"l_quantity"}, nil); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Invalidations; got != before+1 {
		t.Errorf("invalidations = %d, want %d", got, before+1)
	}
}

// TestStreamPhasesDisjoint checks the phase accounting of a streamed
// ORDER BY query: user-side decryption, sorting, and projection land in a
// non-zero finalize observation, and neither execute nor finalize counts
// the caller's time in yield.
func TestStreamPhasesDisjoint(t *testing.T) {
	eng, err := New(testConfig(t, tpch.UAPenc))
	if err != nil {
		t.Fatal(err)
	}
	const pause = 20 * time.Millisecond
	calls := 0
	resp, err := eng.QueryStream(querySQL(t, 1), func(_ []string, _ [][]exec.Value) error {
		calls++
		time.Sleep(pause)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("Q1 streamed no rows")
	}
	snap := eng.Metrics().Snapshot()
	if got := snap["mpq_engine_phase_seconds_count{phase=finalize}"]; got != 1 {
		t.Errorf("finalize observations = %v, want 1", got)
	}
	fin := snap["mpq_engine_phase_seconds_sum{phase=finalize}"]
	if fin <= 0 {
		t.Errorf("finalize phase = %v s, want > 0", fin)
	}
	phases := time.Duration((fin + snap["mpq_engine_phase_seconds_sum{phase=execute}"]) * float64(time.Second))
	if limit := resp.ExecTime - time.Duration(calls)*pause; phases > limit {
		t.Errorf("execute + finalize = %v, want <= %v (exec time %v minus %d yields of %v)",
			phases, limit, resp.ExecTime, calls, pause)
	}
}

// TestMetricsConcurrentQueries hammers the registry from concurrent queries,
// scrapers, and policy mutations — the -race proof that sharded counters,
// scrape-time bridges, and cache gauges tolerate full concurrency.
func TestMetricsConcurrentQueries(t *testing.T) {
	eng, err := New(testConfig(t, tpch.UAPmix))
	if err != nil {
		t.Fatal(err)
	}
	sqlText := querySQL(t, 6)
	if _, err := eng.Query(sqlText); err != nil { // warm the plan cache
		t.Fatal(err)
	}

	const clients, perClient = 8, 5
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if _, err := eng.Query(sqlText); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for s := 0; s < 3; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				eng.Stats()
				eng.Metrics().Snapshot()
				var buf bytes.Buffer
				if err := eng.Metrics().WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()

	if got := eng.Stats().Queries; got != 1+clients*perClient {
		t.Errorf("queries = %d, want %d", got, 1+clients*perClient)
	}
}
