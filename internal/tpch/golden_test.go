package tpch

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/planner"
)

// goldenPath holds, for each of the 22 queries, the rendered plan tree with
// every node's estimated output cardinality, followed by the per-scenario
// cost of RunCostExperiment(1).
var goldenPath = filepath.Join("testdata", "plans_costs.golden")

// renderGolden renders the plans and Figure 9 costs pinned by goldenPath.
// Numbers print at nine significant digits: enough to catch any change in
// join order, pushdown or estimation, while staying stable across
// architectures that fuse multiply-adds.
func renderGolden() (string, error) {
	pl := planner.New(Catalog(1))
	res, err := RunCostExperiment(1)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for i, q := range Queries() {
		plan, err := pl.PlanSQL(q.SQL)
		if err != nil {
			return "", fmt.Errorf("Q%d: %w", q.Num, err)
		}
		fmt.Fprintf(&sb, "Q%d %s\n", q.Num, q.Name)
		sb.WriteString(algebra.Format(plan.Root, func(n algebra.Node) string {
			return fmt.Sprintf("rows=%.9g", n.Stats().Rows)
		}))
		row := res.Rows[i]
		for _, sc := range Scenarios() {
			fmt.Fprintf(&sb, "cost %s = %.9g\n", sc, row.Cost[sc])
		}
		sb.WriteString("\n")
	}
	return sb.String(), nil
}

// TestGoldenPlansAndCosts pins the exact plan every TPC-H query gets and the
// Figure 9 cost of each scenario. The structural tests in plan_shape_test.go
// check plan properties; this one fails on any change of join order,
// predicate placement, projection or cardinality estimate, and on any cost
// the assignment optimizer derives from them. A deliberate planner change
// replaces the golden file with the rendering this test logs on mismatch.
func TestGoldenPlansAndCosts(t *testing.T) {
	got, err := renderGolden()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s:%d differs\n got: %q\nwant: %q", goldenPath, i+1, g, w)
			break
		}
	}
	t.Logf("full rendering:\n%s", got)
}
