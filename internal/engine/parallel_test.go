package engine

import (
	"testing"

	"mpq/internal/tpch"
)

// TestWorkersMatchesSingleThreaded runs the conformance query subset through
// a morsel-parallel engine (workers forced, morsels shrunk so every relation
// actually splits) on every authorization scenario and diffs the distributed
// results row for row against the single-threaded engine. The ledger must
// also agree per edge on rows shipped — morsel boundaries repartition the
// batch streams but never the data. Exercised under -race in CI.
func TestWorkersMatchesSingleThreaded(t *testing.T) {
	for _, sc := range tpch.Scenarios() {
		sc := sc
		t.Run(string(sc), func(t *testing.T) {
			parCfg := testConfig(t, sc)
			parCfg.Workers = 4
			parCfg.MorselRows = 128
			parEng, err := New(parCfg)
			if err != nil {
				t.Fatal(err)
			}
			seqEng, err := New(testConfig(t, sc))
			if err != nil {
				t.Fatal(err)
			}
			for _, num := range testQueries {
				sqlText := querySQL(t, num)
				got, err := parEng.Query(sqlText)
				if err != nil {
					t.Fatalf("Q%d workers=4: %v", num, err)
				}
				want, err := seqEng.Query(sqlText)
				if err != nil {
					t.Fatalf("Q%d workers=1: %v", num, err)
				}
				g, w := rowStrings(got.Table.Rows), rowStrings(want.Table.Rows)
				if len(g) != len(w) {
					t.Fatalf("Q%d: %d rows, want %d", num, len(g), len(w))
				}
				for i := range w {
					if g[i] != w[i] {
						t.Fatalf("Q%d row %d differs:\nworkers=4: %s\nworkers=1: %s", num, i, g[i], w[i])
					}
				}
				if diff := ledgerDiff(edgesOf(got.Transfers), edgesOf(want.Transfers)); diff != "" {
					t.Errorf("Q%d: transfer ledgers differ: %s", num, diff)
				}
			}
		})
	}
}
