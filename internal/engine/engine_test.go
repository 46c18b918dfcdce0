package engine

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"

	"mpq/internal/exec"
	"mpq/internal/planner"
	"mpq/internal/tpch"
)

const (
	testSF           = 0.001
	testSeed         = 99
	testPaillierBits = 128
)

// testQueries is the engine conformance subset: aggregation over Paillier
// sums (Q1, Q6), multi-way joins (Q3, Q10), OPE date ranges, and group-by
// over deterministic ciphertexts.
var testQueries = []int{1, 3, 6, 10}

func testConfig(t testing.TB, sc tpch.Scenario) Config {
	t.Helper()
	cfg := TPCHConfig(sc, testSF, testSeed)
	cfg.PaillierBits = testPaillierBits
	return cfg
}

func querySQL(t testing.TB, num int) string {
	t.Helper()
	for _, q := range tpch.Queries() {
		if q.Num == num {
			return q.SQL
		}
	}
	t.Fatalf("no TPC-H query %d", num)
	return ""
}

// canon serializes a result table to canonical bytes: every row rendered
// with floats rounded to 2 decimals and integers normalized to floats
// (Paillier fixed-point sums of integers decode as integers while plaintext
// accumulation yields floats), rows sorted. Two executions agree iff their
// canonical serializations are byte-identical.
func canon(t *exec.Table) []byte {
	rows := make([]string, len(t.Rows))
	for i, row := range t.Rows {
		var sb strings.Builder
		for _, v := range row {
			sb.WriteByte('|')
			switch v.Kind {
			case exec.KFloat:
				sb.WriteString(exec.Float(math.Round(v.F*100) / 100).String())
			case exec.KInt:
				sb.WriteString(exec.Float(float64(v.I)).String())
			default:
				sb.WriteString(v.String())
			}
		}
		rows[i] = sb.String()
	}
	sort.Strings(rows)
	return []byte(strings.Join(rows, "\n"))
}

// centralized runs a query on a trusted executor holding every base table
// in plaintext: the ground truth the distributed engine must reproduce.
func centralized(t *testing.T, sqlText string) *exec.Table {
	t.Helper()
	cat := tpch.Catalog(testSF)
	trusted := exec.NewExecutor()
	for name, tbl := range tpch.Generate(testSF, testSeed) {
		trusted.Tables[name] = tbl
	}
	plan, err := planner.New(cat).PlanSQL(sqlText)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := trusted.RunPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestEngineMatchesCentralized proves, for every authorization scenario of
// the Section 7 evaluation, that the distributed runtime returns
// byte-identical (canonically serialized) results to trusted centralized
// execution over plaintext tables, that a cached re-execution returns the
// same bytes, and that the centralized oracle running the extended plan
// agrees with both — and with the run's per-edge ledger.
func TestEngineMatchesCentralized(t *testing.T) {
	for _, sc := range tpch.Scenarios() {
		sc := sc
		t.Run(string(sc), func(t *testing.T) {
			par, err := New(testConfig(t, sc))
			if err != nil {
				t.Fatal(err)
			}
			for _, num := range testQueries {
				sqlText := querySQL(t, num)
				want := canon(centralized(t, sqlText))

				cold, err := par.Query(sqlText)
				if err != nil {
					t.Fatalf("Q%d: %v", num, err)
				}
				if cold.CacheHit {
					t.Errorf("Q%d: first execution reported a cache hit", num)
				}
				if got := canon(cold.Table); !bytes.Equal(got, want) {
					t.Errorf("Q%d: parallel result differs from centralized\ngot:\n%s\nwant:\n%s", num, got, want)
				}

				cached, err := par.Query(sqlText)
				if err != nil {
					t.Fatalf("Q%d cached: %v", num, err)
				}
				if !cached.CacheHit {
					t.Errorf("Q%d: repeated execution missed the plan cache", num)
				}
				if got := canon(cached.Table); !bytes.Equal(got, want) {
					t.Errorf("Q%d: cached result differs from centralized", num)
				}

				ores, edges := oracleQuery(t, par, sqlText)
				if got := canon(ores); !bytes.Equal(got, want) {
					t.Errorf("Q%d: oracle result differs from centralized", num)
				}
				// The runtime must account exactly the oracle's shipments
				// (order aside): same multiset of (from, to, op, rows).
				if diff := ledgerDiff(edgesOf(cold.Transfers), edges); diff != "" {
					t.Errorf("Q%d: transfer ledgers differ: %s", num, diff)
				}
			}
		})
	}
}
