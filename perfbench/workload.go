package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"mpq/internal/authz"
	"mpq/internal/engine"
	"mpq/internal/exec"
	"mpq/internal/planner"
	"mpq/internal/tpch"
)

// paillierBits is the per-prime Paillier key size of every workload (the
// engine default is 512; 128 keeps a run within its time budget).
const paillierBits = 128

// workload is one input set of the benchmark: a TPC-H scale factor, an
// authorization scenario of the paper's Section 7, a query mix, and the
// per-workload engine settings.
type workload struct {
	name     string
	scenario tpch.Scenario
	sf       float64
	queries  []int
	// memBudget is the per-query engine MemBudget (0 = unbudgeted).
	memBudget int64
	// churn makes every operation a policy mutation followed by a query:
	// the mutation alternates between granting and revoking churnRel to
	// churnSubject, so each query misses the plan cache.
	churn bool
}

// Policy mutation of the churn workload: plaintext lineitem for provider X,
// an authorization X does not hold in any scenario (providers hold only the
// scenario's default "any" rule).
const (
	churnRel     = "lineitem"
	churnSubject = authz.Subject("X")
)

// paillierQueries are the TPC-H queries whose UAPenc plans encrypt under
// Paillier; every other query uses deterministic, OPE, or random schemes.
var paillierQueries = []int{1, 7, 10, 14, 15, 18, 19}

func workloads() []*workload {
	var sym, churn []int
	for _, q := range tpch.Queries() {
		if !contains(paillierQueries, q.Num) {
			sym = append(sym, q.Num)
		}
		if q.Num != 1 {
			churn = append(churn, q.Num)
		}
	}
	return []*workload{
		{name: "enc-paillier", scenario: tpch.UAPenc, sf: 0.001, queries: paillierQueries},
		{name: "enc-sym", scenario: tpch.UAPenc, sf: 0.01, queries: sym},
		{name: "policy-churn", scenario: tpch.UAPmix, sf: 0.001, queries: churn, churn: true},
		{name: "spill-join", scenario: tpch.UA, sf: 0.01, queries: []int{3, 5, 9, 13, 18, 21}, memBudget: 4 << 20},
	}
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func contains(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// query is one entry of the mix.
type query struct {
	num int
	sql string
}

func (w *workload) mix() []query {
	var out []query
	for _, q := range tpch.Queries() {
		if contains(w.queries, q.Num) {
			out = append(out, query{num: q.Num, sql: q.SQL})
		}
	}
	return out
}

// rounds yields the query order of successive rounds: every round runs the
// whole mix once, in an order shuffled from the seed, so the composition of
// the latency percentiles is fixed whatever the run length.
type rounds struct {
	mix []query
	rng *rand.Rand
}

func newRounds(w *workload, seed int64) *rounds {
	return &rounds{mix: w.mix(), rng: rand.New(rand.NewSource(seed))}
}

func (r *rounds) next() []query {
	out := append([]query(nil), r.mix...)
	r.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// config generates the workload's tables from seed and returns a fresh
// engine configuration over them. Each call owns its own policy and tables,
// so set-ups never share lazily built column caches.
func (w *workload) config(seed int64, spillDir string) engine.Config {
	cfg := engine.TPCHConfig(w.scenario, w.sf, seed)
	cfg.PaillierBits = paillierBits
	cfg.MemBudget = w.memBudget
	cfg.SpillDir = spillDir
	return cfg
}

// references computes each query's expected result once, on a trusted
// centralized executor holding every base table in plaintext, and returns
// its canonical serialization by query number.
func references(w *workload, seed int64) (map[int]string, error) {
	trusted := exec.NewExecutor()
	for name, t := range tpch.Generate(w.sf, seed) {
		trusted.Tables[name] = t
	}
	p := planner.New(tpch.Catalog(w.sf))
	out := make(map[int]string)
	for _, q := range w.mix() {
		plan, err := p.PlanSQL(q.sql)
		if err != nil {
			return nil, fmt.Errorf("reference Q%d: %w", q.num, err)
		}
		want, _, err := trusted.RunPlan(plan)
		if err != nil {
			return nil, fmt.Errorf("reference Q%d: %w", q.num, err)
		}
		out[q.num] = canon(want)
	}
	return out, nil
}

// canon serializes a result table canonically: floats rounded to 2
// decimals, integers rendered as floats (Paillier fixed-point sums of
// integers decode as integers while plaintext accumulation yields floats),
// rows sorted. Two results agree iff their serializations are equal.
func canon(t *exec.Table) string {
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
	return strings.Join(rows, "\n")
}

// churnColumns lists every lineitem column, the plaintext grant of the
// churn mutation.
func churnColumns(w *workload) []string {
	rel := tpch.Catalog(w.sf).Relation(churnRel)
	cols := make([]string, len(rel.Columns))
	for i, c := range rel.Columns {
		cols[i] = c.Name
	}
	return cols
}

// mutator toggles the churn authorization on a policy holder: the engine
// (through its public Grant/Revoke) or the replay's own policy.
type mutator struct {
	cols    []string
	granted bool
}

// next applies the next mutation through grant or revoke.
func (m *mutator) next(grant func(rel string, s authz.Subject, plain []string) error, revoke func(rel string, s authz.Subject) bool) error {
	if m.granted {
		if !revoke(churnRel, churnSubject) {
			return fmt.Errorf("revoke %s from %s: no authorization to remove", churnRel, churnSubject)
		}
		m.granted = false
		return nil
	}
	if err := grant(churnRel, churnSubject, m.cols); err != nil {
		return fmt.Errorf("grant %s to %s: %w", churnRel, churnSubject, err)
	}
	m.granted = true
	return nil
}
