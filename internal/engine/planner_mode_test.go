package engine

import (
	"bytes"
	"fmt"
	"testing"

	"mpq/internal/tpch"
)

// TestPlannerModeEquivalence is the cross-mode oracle suite: every TPC-H
// query, on every authorization scenario, through every planner mode and
// worker count, must produce exactly the rows of the centralized
// row-at-a-time oracle running the cost-mode (FROM-order) plan. Join reordering
// permutes row order and float accumulation order, so rows are compared
// canonicalized (sorted, floats rounded) — any divergence means greedy
// ordering or adaptive re-planning changed the *answer*, not the plan.
// Adaptive cells run each query twice: the second submission hits the plan
// cache, may trigger a re-plan from the first run's observed cardinalities,
// and must still return identical rows. Exercised under -race in CI.
func TestPlannerModeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full 22-query × scenario × mode × workers sweep")
	}
	queries := tpch.Queries()
	for _, sc := range tpch.Scenarios() {
		sc := sc
		t.Run(string(sc), func(t *testing.T) {
			ref, err := New(testConfig(t, sc))
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[int][]byte, len(queries))
			for _, q := range queries {
				res, _ := oracleQuery(t, ref, q.SQL)
				want[q.Num] = canon(res)
			}
			for _, mode := range []string{PlannerCost, PlannerGreedy, PlannerAdaptive} {
				for _, workers := range []int{1, 2, 8} {
					mode, workers := mode, workers
					t.Run(fmt.Sprintf("%s/w%d", mode, workers), func(t *testing.T) {
						t.Parallel()
						cfg := testConfig(t, sc)
						cfg.PlannerMode = mode
						cfg.Workers = workers
						eng, err := New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						for _, q := range queries {
							got, err := eng.Query(q.SQL)
							if err != nil {
								t.Fatalf("Q%d: %v", q.Num, err)
							}
							if g := canon(got.Table); !bytes.Equal(g, want[q.Num]) {
								t.Errorf("Q%d: %s/w%d result differs from oracle\ngot:\n%s\nwant:\n%s",
									q.Num, mode, workers, g, want[q.Num])
							}
							if mode != PlannerAdaptive {
								continue
							}
							// Second run: cache hit, possibly served by a
							// re-planned entry fed with run 1's cardinalities.
							again, err := eng.Query(q.SQL)
							if err != nil {
								t.Fatalf("Q%d (rerun): %v", q.Num, err)
							}
							if g := canon(again.Table); !bytes.Equal(g, want[q.Num]) {
								t.Errorf("Q%d: adaptive re-planned result differs from oracle\ngot:\n%s\nwant:\n%s",
									q.Num, g, want[q.Num])
							}
						}
						if mode == PlannerAdaptive {
							t.Logf("%s/%s/w%d: %d re-plans over %d queries",
								sc, mode, workers, eng.Stats().Replans, len(queries))
						}
					})
				}
			}
		})
	}
}
