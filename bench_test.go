// Benchmarks regenerating the paper's evaluation (one benchmark per figure)
// plus ablation and scaling benchmarks for the machinery DESIGN.md calls
// out. Numbers of interest are emitted as custom metrics:
//
//	go test -bench=. -benchmem
package mpq

import (
	"fmt"
	"math/big"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/assignment"
	"mpq/internal/authz"
	"mpq/internal/core"
	"mpq/internal/cost"
	"mpq/internal/crypto"
	"mpq/internal/distsim"
	"mpq/internal/exec"
	"mpq/internal/plangen"
	"mpq/internal/planner"
	"mpq/internal/profile"
	"mpq/internal/tpch"
)

// ---------------------------------------------------------------------------
// Figure 9 / Figure 10 — the paper's evaluation

// BenchmarkFigure9 regenerates the per-query normalized cost comparison of
// the 22 TPC-H queries under UA / UAPenc / UAPmix and reports the aggregate
// savings as metrics (paper: 54.2% for UAPenc, 71.3% for UAPmix).
func BenchmarkFigure9(b *testing.B) {
	var res *tpch.Results
	for i := 0; i < b.N; i++ {
		var err error
		res, err = tpch.RunCostExperiment(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Savings(tpch.UAPenc), "savings-UAPenc-%")
	b.ReportMetric(100*res.Savings(tpch.UAPmix), "savings-UAPmix-%")
}

// BenchmarkFigure10 regenerates the cumulative cost series and reports the
// final cumulative normalized totals.
func BenchmarkFigure10(b *testing.B) {
	var res *tpch.Results
	for i := 0; i < b.N; i++ {
		var err error
		res, err = tpch.RunCostExperiment(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	cum := res.Cumulative()
	last := len(res.Rows) - 1
	b.ReportMetric(cum[tpch.UA][last], "cumulative-UA")
	b.ReportMetric(cum[tpch.UAPenc][last], "cumulative-UAPenc")
	b.ReportMetric(cum[tpch.UAPmix][last], "cumulative-UAPmix")
}

// BenchmarkFigure9PerQuery times the optimization of each TPC-H query under
// UAPenc individually.
func BenchmarkFigure9PerQuery(b *testing.B) {
	cat := tpch.Catalog(1)
	pl := planner.New(cat)
	sys := tpch.System(cat, tpch.UAPenc)
	m := tpch.Model()
	for _, q := range tpch.Queries() {
		plan, err := pl.PlanSQL(q.SQL)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("Q%02d", q.Num), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				an := sys.Analyze(plan.Root, nil)
				if _, err := assignment.Optimize(sys, an, m, assignment.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations: the two extreme encryption-placement strategies of Section 5

// BenchmarkAblationStrategies compares the paper's strategy (candidates
// first, minimal extension after assignment) against maximizing visibility
// (no encryption: fewer candidates) and minimizing visibility (encrypt
// everything at the sources: more encryption work) on the TPC-H workload
// under UAPenc. Reported metrics are workload costs normalized to the
// paper's strategy = 1.
func BenchmarkAblationStrategies(b *testing.B) {
	cat := tpch.Catalog(1)
	pl := planner.New(cat)
	sys := tpch.System(cat, tpch.UAPenc)
	m := tpch.Model()

	var paper, maxVis, minVis float64
	run := func() {
		paper, maxVis, minVis = 0, 0, 0
		for _, q := range tpch.Queries() {
			plan, err := pl.PlanSQL(q.SQL)
			if err != nil {
				b.Fatal(err)
			}
			an := sys.Analyze(plan.Root, nil)
			res, err := assignment.Optimize(sys, an, m, assignment.Options{})
			if err != nil {
				b.Fatal(err)
			}
			paper += res.Cost.Total()

			// Maximizing visibility: candidates without encryption. Some
			// operations may have no candidate at all (the strategy cannot
			// run the query); charge the best full-plaintext execution at
			// the user as the fallback the scenario would force.
			anMax := sys.AnalyzeMaxVisibility(plan.Root)
			if anMax.Feasible() == nil {
				resMax, err := assignment.Optimize(sys, anMax, m, assignment.Options{})
				if err != nil {
					b.Fatal(err)
				}
				maxVis += resMax.Cost.Total()
			} else {
				maxVis += userOnlyCost(sys, an, m, plan)
			}

			// Minimizing visibility: same assignment as the paper's
			// strategy, but the minimum required views are materialized
			// verbatim (everything encrypted at the sources).
			extMin, err := sys.ExtendMinVisibility(an, res.Lambda)
			if err != nil {
				b.Fatal(err)
			}
			minVis += cost.OfPlan(extMin.Root, assignment.ExtendedExecutor(extMin),
				extMin.Schemes, extMin.Profiles, m).Total()
		}
	}
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(1.0, "cost-paper")
	b.ReportMetric(maxVis/paper, "cost-max-visibility")
	b.ReportMetric(minVis/paper, "cost-min-visibility")
}

// userOnlyCost prices executing the whole plan at the user.
func userOnlyCost(sys *core.System, an *core.Analysis, m *cost.Model, plan *planner.Plan) float64 {
	lambda := make(core.Assignment)
	algebra.PostOrder(plan.Root, func(n algebra.Node) {
		if len(n.Children()) > 0 {
			lambda[n] = m.User
		}
	})
	ext, err := sys.Extend(an, lambda)
	if err != nil {
		return 0
	}
	return cost.OfPlan(ext.Root, assignment.ExtendedExecutor(ext), ext.Schemes, ext.Profiles, m).Total()
}

// BenchmarkExhaustiveVsDP validates the optimizer: exhaustive enumeration
// versus the DP-plus-refinement search on the running example, reporting
// the cost gap (1.0 = optimal).
func BenchmarkExhaustiveVsDP(b *testing.B) {
	sys, plan, m := runningExample(b)
	var gap float64
	for i := 0; i < b.N; i++ {
		an := sys.Analyze(plan.Root, nil)
		dp, err := assignment.Optimize(sys, an, m, assignment.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ex, err := assignment.Exhaustive(sys, an, m)
		if err != nil {
			b.Fatal(err)
		}
		gap = dp.Cost.Total() / ex.Cost.Total()
	}
	b.ReportMetric(gap, "dp/optimal")
}

// ---------------------------------------------------------------------------
// Machinery scaling

// BenchmarkProfilePropagation measures Figure 2 profile computation over
// random plans of growing size.
func BenchmarkProfilePropagation(b *testing.B) {
	for _, ops := range []int{4, 16, 64} {
		g := plangen.New(plangen.Config{Relations: 4, AttrsPerRel: 6, ExtraOps: ops, UDFs: true, Seed: 7})
		root := g.Plan(g.Relations())
		b.Run(fmt.Sprintf("ops=%d", ops), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				profile.ForPlan(root)
			}
		})
	}
}

// BenchmarkCandidates measures Λ computation (Definition 5.3) as subjects
// grow.
func BenchmarkCandidates(b *testing.B) {
	g := plangen.New(plangen.Config{Relations: 4, AttrsPerRel: 6, ExtraOps: 12, UDFs: false, Seed: 11})
	rels := g.Relations()
	root := g.Plan(rels)
	for _, nsub := range []int{4, 16, 64} {
		pol := authz.NewPolicy()
		subjects := make([]authz.Subject, 0, nsub)
		for i := 0; i < nsub; i++ {
			s := authz.Subject(fmt.Sprintf("P%03d", i))
			subjects = append(subjects, s)
			for _, r := range rels {
				var plain, enc []string
				for j, c := range r.Columns {
					if (i+j)%3 == 0 {
						plain = append(plain, c.Name)
					} else {
						enc = append(enc, c.Name)
					}
				}
				pol.MustGrant(r.Name, s, plain, enc)
			}
		}
		for _, r := range rels {
			var all []string
			for _, c := range r.Columns {
				all = append(all, c.Name)
			}
			pol.MustGrant(r.Name, authz.Subject(r.Authority), all, nil)
			subjects = append(subjects, authz.Subject(r.Authority))
		}
		sys := core.NewSystem(pol, subjects...)
		b.Run(fmt.Sprintf("subjects=%d", nsub), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys.Analyze(root, nil)
			}
		})
	}
}

// BenchmarkExtend measures minimal plan extension (Definition 5.4).
func BenchmarkExtend(b *testing.B) {
	sys, plan, m := runningExample(b)
	an := sys.Analyze(plan.Root, nil)
	res, err := assignment.Optimize(sys, an, m, assignment.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Extend(an, res.Lambda); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanner measures SQL parsing and planning of the workload.
func BenchmarkPlanner(b *testing.B) {
	cat := tpch.Catalog(1)
	pl := planner.New(cat)
	qs := tpch.Queries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, err := pl.PlanSQL(q.SQL); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Crypto and execution micro-benchmarks

// BenchmarkEncryptionSchemes measures per-value encryption for each scheme,
// grounding the cost model's computational factors.
func BenchmarkEncryptionSchemes(b *testing.B) {
	master, err := crypto.NewKey()
	if err != nil {
		b.Fatal(err)
	}
	payload := []byte("1995-03-15:4711")

	det, _ := crypto.NewDeterministic(master)
	b.Run("deterministic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := det.Encrypt(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	rnd, _ := crypto.NewRandomized(master)
	b.Run("randomized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rnd.Encrypt(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	ope := crypto.NewOPE(master)
	b.Run("ope", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ope.Encrypt(crypto.EncodeInt(int64(i)))
		}
	})
	pk, err := crypto.GeneratePaillier(512)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("paillier-encrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pk.Encrypt(big.NewInt(int64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	c1, _ := pk.Encrypt(big.NewInt(123))
	c2, _ := pk.Encrypt(big.NewInt(456))
	b.Run("paillier-add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pk.Add(c1, c2)
		}
	})
}

// BenchmarkEncryptedExecution measures running the running-example extended
// plan with real encryption over growing data.
func BenchmarkEncryptedExecution(b *testing.B) {
	for _, rows := range []int{100, 1000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			sys, plan, m := runningExample(b)
			an := sys.Analyze(plan.Root, nil)
			res, err := assignment.Optimize(sys, an, m, assignment.Options{})
			if err != nil {
				b.Fatal(err)
			}
			e := exec.NewExecutor()
			loadSynthetic(e, rows)
			for _, k := range res.Extended.Keys {
				ring, err := crypto.NewKeyRing(k.ID, 128)
				if err != nil {
					b.Fatal(err)
				}
				e.Keys.Add(ring)
			}
			consts, err := exec.PrepareConstants(res.Extended.Root, e.Keys, runningKinds())
			if err != nil {
				b.Fatal(err)
			}
			e.Consts = consts
			extPlan := *plan
			extPlan.Root = res.Extended.Root
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.RunPlan(&extPlan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistributedExecution measures a full distsim round of the
// running example.
func BenchmarkDistributedExecution(b *testing.B) {
	sys, plan, m := runningExample(b)
	an := sys.Analyze(plan.Root, nil)
	res, err := assignment.Optimize(sys, an, m, assignment.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw := distsim.NewNetwork()
		eH := exec.NewExecutor()
		eI := exec.NewExecutor()
		loadSynthetic(eH, 200)
		loadSynthetic(eI, 200)
		nw.Subject("H").Tables["Hosp"] = eH.Tables["Hosp"]
		nw.Subject("I").Tables["Ins"] = eI.Tables["Ins"]
		full, err := nw.DistributeKeys(res.Extended, 128)
		if err != nil {
			b.Fatal(err)
		}
		consts, err := exec.PrepareConstants(res.Extended.Root, full, runningKinds())
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := nw.ExecuteParallelCtx(nil, res.Extended, consts); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Shared fixtures

func runningExample(tb testing.TB) (*core.System, *planner.Plan, *cost.Model) {
	tb.Helper()
	cat := algebra.NewCatalog()
	cat.Add(&algebra.Relation{Name: "Hosp", Authority: "H", Rows: 100000, Columns: []algebra.Column{
		{Name: "S", Type: algebra.TString, Width: 11, Distinct: 100000},
		{Name: "B", Type: algebra.TDate, Width: 8, Distinct: 500},
		{Name: "D", Type: algebra.TString, Width: 20, Distinct: 50},
		{Name: "T", Type: algebra.TString, Width: 20, Distinct: 40},
	}})
	cat.Add(&algebra.Relation{Name: "Ins", Authority: "I", Rows: 500000, Columns: []algebra.Column{
		{Name: "C", Type: algebra.TString, Width: 11, Distinct: 500000},
		{Name: "P", Type: algebra.TFloat, Width: 8, Distinct: 800},
	}})
	pol := authz.NewPolicy()
	for _, r := range []struct{ rel, spec string }{
		{"Hosp", "[S,B,D,T ; ] -> H"}, {"Hosp", "[B ; S,D,T] -> I"},
		{"Hosp", "[S,D,T ; ] -> U"}, {"Hosp", "[D,T ; S] -> X"},
		{"Hosp", "[B,D,T ; S] -> Y"}, {"Hosp", "[S,T ; D] -> Z"},
		{"Ins", "[C ; P] -> H"}, {"Ins", "[C,P ; ] -> I"},
		{"Ins", "[C,P ; ] -> U"}, {"Ins", "[ ; C,P] -> X"},
		{"Ins", "[P ; C] -> Y"}, {"Ins", "[C ; P] -> Z"},
	} {
		pol.MustParseRule(r.rel, r.spec)
	}
	sys := core.NewSystem(pol, "H", "I", "U", "X", "Y", "Z")
	plan, err := planner.New(cat).PlanSQL(
		"select T, avg(P) from Hosp join Ins on S=C where D='stroke' group by T having avg(P)>100")
	if err != nil {
		tb.Fatal(err)
	}
	m := cost.NewPaperModel("U", []authz.Subject{"H", "I"}, []authz.Subject{"X", "Y", "Z"})
	return sys, plan, m
}

func runningKinds() exec.AttrKinds {
	return exec.AttrKinds{
		algebra.A("Hosp", "S"): exec.KString,
		algebra.A("Hosp", "B"): exec.KInt,
		algebra.A("Hosp", "D"): exec.KString,
		algebra.A("Hosp", "T"): exec.KString,
		algebra.A("Ins", "C"):  exec.KString,
		algebra.A("Ins", "P"):  exec.KFloat,
	}
}

func loadSynthetic(e *exec.Executor, n int) {
	hosp := exec.NewTable([]algebra.Attr{
		algebra.A("Hosp", "S"), algebra.A("Hosp", "B"), algebra.A("Hosp", "D"), algebra.A("Hosp", "T"),
	})
	diseases := []string{"stroke", "flu", "asthma"}
	treatments := []string{"surgery", "medication", "therapy"}
	for i := 0; i < n; i++ {
		hosp.Append([]exec.Value{
			exec.String(fmt.Sprintf("s%06d", i)),
			exec.Int(int64(9000 + i%2000)),
			exec.String(diseases[i%len(diseases)]),
			exec.String(treatments[i%len(treatments)]),
		})
	}
	e.Tables["Hosp"] = hosp
	ins := exec.NewTable([]algebra.Attr{algebra.A("Ins", "C"), algebra.A("Ins", "P")})
	for i := 0; i < n; i++ {
		ins.Append([]exec.Value{
			exec.String(fmt.Sprintf("s%06d", i)),
			exec.Float(float64(50 + (i*37)%300)),
		})
	}
	e.Tables["Ins"] = ins
}
