package engine

import (
	"bytes"
	"fmt"
	"testing"

	"mpq/internal/tpch"
)

// TestWorkloadMatchesOracle is the full-workload oracle suite: every TPC-H
// query, on every authorization scenario and worker count, must produce
// exactly the rows of the centralized row-at-a-time oracle. Morsel
// parallelism permutes row order and float accumulation order, so rows are
// compared canonicalized (sorted, floats rounded). Exercised under -race in
// CI.
func TestWorkloadMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full 22-query × scenario × workers sweep")
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
			for _, workers := range []int{1, 2, 8} {
				workers := workers
				t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
					t.Parallel()
					cfg := testConfig(t, sc)
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
							t.Errorf("Q%d: w%d result differs from oracle\ngot:\n%s\nwant:\n%s",
								q.Num, workers, g, want[q.Num])
						}
					}
				})
			}
		})
	}
}
