package engine

import (
	"fmt"
	"sync"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/distsim"
	"mpq/internal/exec"
	"mpq/internal/oracle"
	"mpq/internal/tpch"
)

// rowStrings renders rows for exact, order-sensitive comparison.
func rowStrings(rows [][]exec.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = exec.DisplayString(r)
	}
	return out
}

// oracleQuery runs the prepared plan eng serves for sqlText on the
// centralized oracle and finishes it user-side: decryption with the
// query-plan keys, then ordering, projection, and limit. It returns the
// result and the per-edge ledger the distributed run must account.
func oracleQuery(t *testing.T, eng *Engine, sqlText string) (*exec.Table, []oracle.Edge) {
	t.Helper()
	pq, _, err := eng.admitSQL(sqlText)
	if err != nil {
		t.Fatal(err)
	}
	ext := pq.result.Extended
	root, edges, err := oracle.Run(ext, eng.cfg.Tables, pq.keys, eng.cfg.UDFs, pq.consts)
	if err != nil {
		t.Fatal(err)
	}
	f := exec.NewExecutor()
	f.Keys = pq.keys
	dec, err := f.DecryptTable(root)
	if err != nil {
		t.Fatal(err)
	}
	f.Materialized = map[algebra.Node]*exec.Table{ext.Root: dec}
	plan := *pq.plan
	plan.Root = ext.Root
	final, _, err := f.RunPlan(&plan)
	if err != nil {
		t.Fatal(err)
	}
	return final, edges
}

// edgesOf renders a transfer ledger as oracle edges.
func edgesOf(transfers []distsim.Transfer) []oracle.Edge {
	out := make([]oracle.Edge, len(transfers))
	for i, tr := range transfers {
		out[i] = oracle.Edge{From: tr.From, To: tr.To, Op: tr.Op, Rows: tr.Rows}
	}
	return out
}

// ledgerDiff compares two ledgers as multisets of (from, to, op, rows).
// Byte counts are left out: the oracle ships nothing, and Paillier
// ciphertext encodings vary in length with the key.
func ledgerDiff(got, want []oracle.Edge) string {
	count := make(map[string]int, len(want))
	for _, e := range got {
		count[e.String()]++
	}
	for _, e := range want {
		count[e.String()]--
	}
	for k, n := range count {
		switch {
		case n > 0:
			return fmt.Sprintf("%q shipped %d more time(s) than wanted", k, n)
		case n < 0:
			return fmt.Sprintf("%q shipped %d fewer time(s) than wanted", k, -n)
		}
	}
	return ""
}

// TestBatchPipelineMatchesMaterializing runs the conformance query subset
// through the engine per authorization scenario and diffs each result, row
// for row, against the centralized row-at-a-time oracle executing the same
// prepared plan. Both sides decrypt to plaintext, so the comparison is
// exact: equal values in equal order. The run's ledger must carry the
// oracle's multiset of per-edge (from, to, op, rows).
func TestBatchPipelineMatchesMaterializing(t *testing.T) {
	for _, sc := range tpch.Scenarios() {
		sc := sc
		t.Run(string(sc), func(t *testing.T) {
			eng, err := New(testConfig(t, sc))
			if err != nil {
				t.Fatal(err)
			}
			for _, num := range testQueries {
				sqlText := querySQL(t, num)
				got, err := eng.Query(sqlText)
				if err != nil {
					t.Fatalf("Q%d: %v", num, err)
				}
				want, edges := oracleQuery(t, eng, sqlText)
				g, w := rowStrings(got.Table.Rows), rowStrings(want.Rows)
				if len(g) != len(w) {
					t.Fatalf("Q%d: %d rows, want %d", num, len(g), len(w))
				}
				for i := range w {
					if g[i] != w[i] {
						t.Fatalf("Q%d row %d differs:\nengine: %s\noracle: %s", num, i, g[i], w[i])
					}
				}
				if diff := ledgerDiff(edgesOf(got.Transfers), edges); diff != "" {
					t.Errorf("Q%d: transfer ledgers differ: %s", num, diff)
				}
			}
		})
	}
}

// TestQueryStreamMatchesQuery proves the streaming Query variant delivers
// exactly the drained result: same rows, same order, same headers — for
// sorted queries (drain-sort-replay) and unsorted ones (true streaming).
func TestQueryStreamMatchesQuery(t *testing.T) {
	eng, err := New(testConfig(t, tpch.UAPenc))
	if err != nil {
		t.Fatal(err)
	}
	for _, num := range testQueries {
		sqlText := querySQL(t, num)
		want, err := eng.Query(sqlText)
		if err != nil {
			t.Fatalf("Q%d: %v", num, err)
		}
		var streamed [][]exec.Value
		var headers []string
		resp, err := eng.QueryStream(sqlText, func(h []string, rows [][]exec.Value) error {
			headers = h
			streamed = append(streamed, rows...)
			return nil
		})
		if err != nil {
			t.Fatalf("Q%d stream: %v", num, err)
		}
		if want.Table.Len() > 0 {
			if len(headers) != len(want.Headers) {
				t.Fatalf("Q%d: streamed headers %v, want %v", num, headers, want.Headers)
			}
			if resp.TimeToFirstRow <= 0 {
				t.Errorf("Q%d: no time-to-first-row recorded", num)
			}
		}
		if resp.Rows != want.Table.Len() {
			t.Fatalf("Q%d: streamed %d rows, want %d", num, resp.Rows, want.Table.Len())
		}
		g, w := rowStrings(streamed), rowStrings(want.Table.Rows)
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("Q%d row %d differs:\nstream: %s\nquery:  %s", num, i, g[i], w[i])
			}
		}
	}
}

// TestQueryStreamConcurrent hammers one engine with concurrent streaming
// queries (exercised under -race in CI): every client must observe its own
// complete, correct stream while fragment workers of many runs exchange
// batches in parallel.
func TestQueryStreamConcurrent(t *testing.T) {
	eng, err := New(testConfig(t, tpch.UAPenc))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int][]string)
	for _, num := range testQueries {
		resp, err := eng.Query(querySQL(t, num))
		if err != nil {
			t.Fatalf("Q%d: %v", num, err)
		}
		want[num] = rowStrings(resp.Table.Rows)
	}

	const perQuery = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(testQueries)*perQuery)
	for _, num := range testQueries {
		for c := 0; c < perQuery; c++ {
			wg.Add(1)
			go func(num int) {
				defer wg.Done()
				var got [][]exec.Value
				_, err := eng.QueryStream(querySQL(t, num), func(_ []string, rows [][]exec.Value) error {
					got = append(got, rows...)
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
				g := rowStrings(got)
				if len(g) != len(want[num]) {
					errs <- errMismatch{num, len(g), len(want[num])}
					return
				}
				for i := range g {
					if g[i] != want[num][i] {
						errs <- errMismatch{num, i, -1}
						return
					}
				}
			}(num)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type errMismatch struct {
	query, got, want int
}

func (e errMismatch) Error() string {
	if e.want < 0 {
		return "stream mismatch in query result"
	}
	return "streamed row count differs from drained result"
}
