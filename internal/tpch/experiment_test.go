package tpch

import (
	"testing"
)

// TestCostExperimentShape runs the full Figure 9/10 experiment and asserts
// the qualitative results of the paper's evaluation:
//
//   - no query costs more under UAPenc or UAPmix than under UA (the
//     provider-free assignment is always available);
//   - total UAPenc savings are substantial (the paper reports 54.2%; our
//     calibration lands in the 35–60% band, see docs/BENCHMARKS.md,
//     "Paper reproduction (tpchbench)");
//   - UAPmix saves more than UAPenc overall (paper: 71.3%; band 55–80%);
//   - the cumulative series are monotone.
func TestCostExperimentShape(t *testing.T) {
	res, err := RunCostExperiment(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 22 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Norm[UA] != 1 {
			t.Errorf("Q%d: UA normalization = %v", row.Query, row.Norm[UA])
		}
		if row.Norm[UAPenc] > 1.0001 {
			t.Errorf("Q%d: UAPenc (%.3f) exceeds UA", row.Query, row.Norm[UAPenc])
		}
		if row.Norm[UAPmix] > 1.0001 {
			t.Errorf("Q%d: UAPmix (%.3f) exceeds UA", row.Query, row.Norm[UAPmix])
		}
		if row.Cost[UA] <= 0 {
			t.Errorf("Q%d: non-positive absolute cost", row.Query)
		}
	}

	encSave := res.Savings(UAPenc)
	mixSave := res.Savings(UAPmix)
	if encSave < 0.35 || encSave > 0.60 {
		t.Errorf("UAPenc savings = %.1f%%, want 35–60%% (paper 54.2%%)", 100*encSave)
	}
	if mixSave < 0.55 || mixSave > 0.80 {
		t.Errorf("UAPmix savings = %.1f%%, want 55–80%% (paper 71.3%%)", 100*mixSave)
	}
	if mixSave <= encSave {
		t.Errorf("UAPmix (%.1f%%) should save more than UAPenc (%.1f%%)", 100*mixSave, 100*encSave)
	}

	// Cumulative series are monotone non-decreasing, and the deep-saving
	// cross-authority queries show at least 4× savings under UAPenc.
	cum := res.Cumulative()
	for _, sc := range Scenarios() {
		series := cum[sc]
		for i := 1; i < len(series); i++ {
			if series[i] < series[i-1] {
				t.Errorf("%s cumulative decreases at %d", sc, i)
			}
		}
	}
	deep := 0
	for _, row := range res.Rows {
		if row.Norm[UAPenc] < 0.25 {
			deep++
		}
	}
	if deep < 3 {
		t.Errorf("expected at least 3 deeply-saving queries, got %d", deep)
	}

	// Formatting includes every query and the savings line.
	f9, f10 := res.FormatFigure9(), res.FormatFigure10()
	if len(f9) < 500 || len(f10) < 500 {
		t.Errorf("figure rendering too short")
	}
}

// TestLIKEBoundQueriesExplained documents the known deviation: LIKE
// predicates require plaintext, leave a plaintext trace, and pin those
// queries to 1.0 under UAPenc while UAPmix (plaintext visibility over the
// filtered attributes) still saves.
func TestLIKEBoundQueriesExplained(t *testing.T) {
	res, err := RunCostExperiment(1)
	if err != nil {
		t.Fatal(err)
	}
	likeBound := map[int]bool{2: true, 9: true, 13: true, 16: true}
	for _, row := range res.Rows {
		if likeBound[row.Query] {
			if row.Norm[UAPenc] < 0.999 {
				t.Errorf("Q%d unexpectedly saved under UAPenc (%.3f): the LIKE analysis in docs/BENCHMARKS.md is stale",
					row.Query, row.Norm[UAPenc])
			}
			if row.Norm[UAPmix] > 0.95 {
				t.Errorf("Q%d should save under UAPmix (%.3f)", row.Query, row.Norm[UAPmix])
			}
		}
	}
}

// TestScenarioCostsAreDeterministic guards against nondeterminism in the
// optimizer (map iteration, etc.): two runs must agree.
func TestScenarioCostsAreDeterministic(t *testing.T) {
	a, err := RunCostExperiment(0.1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCostExperiment(0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		for _, sc := range Scenarios() {
			if a.Rows[i].Cost[sc] != b.Rows[i].Cost[sc] {
				t.Errorf("Q%d %s: %v vs %v", a.Rows[i].Query, sc, a.Rows[i].Cost[sc], b.Rows[i].Cost[sc])
			}
		}
	}
}
