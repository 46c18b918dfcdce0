// Command perfbench is the repository's benchmark. It drives the
// in-process query engine (engine.Engine) through its public QueryCtx,
// Grant and Revoke with one closed-loop client, checks every result
// against a trusted centralized executor, and prints every metric with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 every operation runs untraced on the engine and then again
// in a layer-by-layer replay (replay.go), and the run reports per-layer
// metrics; the replay's spans are written under .bench_build/perfbench.
//
//	bash perfbench/run.sh --workload enc-sym --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"mpq/internal/authz"
	"mpq/internal/engine"
)

// fidelityBound is how far, as a share of the engine's own phase time
// (mpq_engine_phase_seconds), the replay's summed layer time may drift
// before the replay no longer counts as the engine's query path; a run
// beyond it reports correct=false.
const fidelityBound = 0.25

type options struct {
	workload string
	seed     int64
	seconds  float64 // measured time; 0 runs exactly one round
	trace    bool
	setups   int    // engine set-ups timed; setup_s is their median
	root     string // checkout root: spans, spill runs, and source hash
	commit   string
}

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string // sample counts and bases, printed beside the value
}

type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	stamp             map[string]any
	mismatches        map[int]int // failed operations by query number
	modules           []layerShare
	spansPath         string
	// exact holds the counts that must repeat bit for bit across runs at
	// one seed: ledger bytes and modeled cost of the engine's operations,
	// and, from a traced run, the replay's crypto and spill counts.
	exact map[string]float64
}

func (r *result) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{Name: name, Value: value, Unit: unit, Note: note})
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name: enc-paillier, enc-sym, policy-churn or spill-join")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (data generation and query order)")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured time in seconds, rounded up to whole rounds of the query mix")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced replay; 0 end-to-end metrics")
	flag.StringVar(&o.commit, "commit", "", "git commit of the measured source, recorded in the stamp")
	flag.Parse()
	o.trace = *trace == 1
	o.setups = 3
	o.root = "."
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// client is the benchmark's single closed-loop client of one engine.
type client struct {
	eng *engine.Engine
	w   *workload
	mut mutator
}

// do runs one operation: the churn mutation, if any, then the query.
func (c *client) do(ctx context.Context, q query) (*engine.Response, error) {
	if c.w.churn {
		err := c.mut.next(func(rel string, s authz.Subject, plain []string) error {
			_, err := c.eng.Grant(rel, s, plain, nil)
			return err
		}, func(rel string, s authz.Subject) bool {
			_, ok := c.eng.Revoke(rel, s)
			return ok
		})
		if err != nil {
			return nil, err
		}
	}
	return c.eng.QueryCtx(ctx, q.sql)
}

// tally accumulates checked operations.
type tally struct {
	latMs      []float64
	busy       time.Duration
	ops        int
	failed     int
	bytes      int64
	cost       *big.Float // exact sum, so the mean repeats bit for bit
	mismatches map[int]int
}

func newTally() *tally {
	return &tally{cost: new(big.Float).SetPrec(4096), mismatches: make(map[int]int)}
}

// round runs one round of operations, timing each and checking its result
// outside the timed interval.
func (c *client) round(ctx context.Context, qs []query, ref map[int]string, t *tally) {
	for _, q := range qs {
		start := time.Now()
		resp, err := c.do(ctx, q)
		el := time.Since(start)
		t.ops++
		t.busy += el
		t.latMs = append(t.latMs, float64(el)/1e6)
		if err == nil && canon(resp.Table) != ref[q.num] {
			err = errors.New("result differs from the reference")
		}
		if err != nil {
			t.failed++
			t.mismatches[q.num]++
			fmt.Fprintf(os.Stderr, "perfbench: Q%d: %v\n", q.num, err)
			continue
		}
		t.bytes += resp.BytesShipped()
		t.cost.Add(t.cost, new(big.Float).SetFloat64(resp.Cost.Total()))
	}
}

func (t *tally) meanCost() float64 {
	if t.ops == t.failed {
		return 0
	}
	f, _ := new(big.Float).Quo(t.cost, new(big.Float).SetInt64(int64(t.ops-t.failed))).Float64()
	return f
}

func (t *tally) meanBytes() float64 {
	return perOp(float64(t.bytes), t.ops-t.failed)
}

func run(o options) (*result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	o.setups = max(o.setups, 1)
	ctx := context.Background()
	work := filepath.Join(o.root, ".bench_build", "perfbench")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	spillDir, err := os.MkdirTemp(work, "spill-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spillDir)

	ref, err := references(w, o.seed)
	if err != nil {
		return nil, err
	}
	order := newRounds(w, o.seed)

	// Set up the engine several times, each over freshly generated tables;
	// the last one is measured. Only engine.New and the warm-up round are
	// timed, not data generation or result checks.
	warm := newTally()
	var (
		c      *client
		cfg    engine.Config
		setups []float64
	)
	for i := 0; i < o.setups; i++ {
		c = nil // let the previous engine and its tables be collected
		cfg = w.config(o.seed, spillDir)
		runtime.GC()
		qs := order.next()
		busy := warm.busy
		start := time.Now()
		eng, err := engine.New(cfg)
		if err != nil {
			return nil, err
		}
		newed := time.Since(start)
		c = &client{eng: eng, w: w, mut: mutator{cols: churnColumns(w)}}
		c.round(ctx, qs, ref, warm)
		setups = append(setups, (newed + warm.busy - busy).Seconds())
	}

	res := &result{correct: true, stamp: stamp(o, w), exact: make(map[string]float64)}
	var meas *tally
	if o.trace {
		if meas, err = traced(ctx, o, w, c, cfg, order, ref, res); err != nil {
			return nil, err
		}
	} else {
		if meas, err = untraced(ctx, o, c, order, ref, res); err != nil {
			return nil, err
		}
		res.add("setup_s", median(setups), "s",
			fmt.Sprintf("median of %d set-ups, engine.New through one warm-up round", len(setups)))
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return nil, err
		}
		res.add("max_rss_mb", float64(ru.Maxrss)/1024, "MB", "peak resident set of the process")
	}
	res.attempted = warm.ops + meas.ops
	res.failed = warm.failed + meas.failed
	res.mismatches = warm.mismatches
	for q, n := range meas.mismatches {
		res.mismatches[q] += n
	}
	res.correct = res.correct && res.failed == 0
	return res, nil
}

// untraced measures the end-to-end metrics: whole rounds until the
// measured time is spent.
func untraced(ctx context.Context, o options, c *client, order *rounds, ref map[int]string, res *result) (*tally, error) {
	t := newTally()
	// Throughput and CPU are taken per round and reported as the median
	// over rounds, so a stall of the shared host during one round does not
	// move them.
	var qps, cpuMs []float64
	start := time.Now()
	for t.ops == 0 || time.Since(start).Seconds() < o.seconds {
		ops, busy := t.ops, t.busy
		cpu0, err := cpuTime()
		if err != nil {
			return nil, err
		}
		c.round(ctx, order.next(), ref, t)
		cpu1, err := cpuTime()
		if err != nil {
			return nil, err
		}
		n := float64(t.ops - ops)
		qps = append(qps, n/(t.busy-busy).Seconds())
		cpuMs = append(cpuMs, float64(cpu1-cpu0)/1e6/n)
	}
	n := fmt.Sprintf("n=%d operations in %d rounds", t.ops, len(qps))
	res.add("latency_p50_ms", percentile(t.latMs, 0.5), "ms", n)
	res.add("latency_p90_ms", percentile(t.latMs, 0.9), "ms", n)
	res.add("throughput_qps", median(qps), "1/s", "median over rounds of operations per second of client busy time, result checks excluded")
	res.add("cpu_ms_per_query", median(cpuMs), "ms", "median over rounds of process user+sys CPU per operation, result checks included")
	res.add("bytes_shipped_per_query", t.meanBytes(), "bytes", "inter-subject ledger bytes")
	res.add("modeled_cost_usd_per_query", t.meanCost(), "usd", "Response.Cost.Total()")
	res.exact["bytes_shipped_per_query"] = t.meanBytes()
	res.exact["modeled_cost_usd_per_query"] = t.meanCost()
	return t, nil
}

// traced runs whole rounds in which every operation runs untraced on the
// engine and then again in the layer-by-layer replay, and reports the
// per-layer metrics.
func traced(ctx context.Context, o options, w *workload, c *client, cfg engine.Config, order *rounds, ref map[int]string, res *result) (*tally, error) {
	rp := newReplay(cfg, w, time.Now())
	// Warm the replay's plan cache the way the engine's warm-up round did.
	for _, q := range order.next() {
		rp.op(ctx, q, ref[q.num])
	}
	rp.record = true

	t := newTally()
	var phaseS float64
	st0 := c.eng.Stats()
	start := time.Now()
	for t.ops == 0 || time.Since(start).Seconds() < o.seconds {
		// Each operation runs on the engine and then in the replay, so the
		// two see the same host conditions.
		for _, q := range order.next() {
			p0 := phaseSeconds(c.eng)
			c.round(ctx, []query{q}, ref, t)
			phaseS += phaseSeconds(c.eng) - p0
			rp.op(ctx, q, ref[q.num])
		}
	}
	rp.refills.Wait()
	st1 := c.eng.Stats()
	rt := &rp.tot
	if rt.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d replayed operations failed or differ from the reference\n", rt.failed)
	}
	res.exact["bytes_shipped_per_query"] = t.meanBytes()
	res.exact["modeled_cost_usd_per_query"] = t.meanCost()
	for _, i := range []int{cDetEnc, cDetDec, cRndEnc, cRndDec, cOPEEnc, cOPEDec, cPheEnc, cPheDec, cSpillWritten, cSpillRead, cSpillParts} {
		res.exact[counterNames[i]] = perOp(rt.delta[i], rt.ops)
	}
	res.exact["distsim.exchange_rows_per_query"] = perOp(float64(rt.rows), rt.ops)

	ms := rt.layerMs
	perQ := func(i int) float64 { return perOp(rt.delta[i], rt.ops) }
	selfMs := func(ns int64) float64 { return perOp(float64(ns)/1e6, rt.ops) }
	n := fmt.Sprintf("per query, n=%d replayed operations", rt.ops)
	res.add("sql.parse_ms", ms("sql.parse"), "ms", n)
	res.add("planner.plan_ms", ms("planner.plan"), "ms", n)
	res.add("core.check_ms", ms("core.check"), "ms", n)
	res.add("core.analyze_ms", ms("core.analyze"), "ms", n)
	res.add("assignment.optimize_ms", ms("assignment.optimize"), "ms", n)
	res.add("distsim.keys_ms", ms("distsim.keys"), "ms", n)
	res.add("exec.consts_ms", ms("exec.consts"), "ms", n)
	hits, lookups := st1.CacheHits-st0.CacheHits, st1.CacheHits+st1.CacheMisses-st0.CacheHits-st0.CacheMisses
	res.add("engine.plan_cache_hit_ratio", ratio(float64(hits), float64(lookups)), "ratio",
		fmt.Sprintf("%d hits of %d engine lookups; replay %d of %d", hits, lookups, rt.hits, rt.hits+rt.misses))
	res.add("engine.plan_cache_lookups", float64(lookups), "count", "engine plan-cache lookups in the measured rounds")
	for i, s := range schemes {
		res.add(fmt.Sprintf("exec.encrypt.%s_self_ms", s), selfMs(rt.encNs[i]), "ms", n)
	}
	for i, s := range schemes {
		res.add(fmt.Sprintf("exec.decrypt.%s_self_ms", s), selfMs(rt.decNs[i]), "ms", n)
	}
	for i := cDetEnc; i <= cPheDec; i++ {
		res.add(counterNames[i], perQ(i), "values", n)
	}
	draws := rt.delta[cPoolHits] + rt.delta[cPoolMisses]
	res.add("crypto.phe.pool_hit_ratio", ratio(rt.delta[cPoolHits], draws), "ratio",
		fmt.Sprintf("%.0f hits of %.0f randomizer draws", rt.delta[cPoolHits], draws))
	res.add("crypto.phe.pool_hits", perQ(cPoolHits), "count", n)
	res.add("crypto.phe.pool_misses", perQ(cPoolMisses), "count", n)
	for i, name := range opClassNames {
		res.add(fmt.Sprintf("exec.%s_self_ms", name), selfMs(rt.opSelfNs[i]), "ms", n+"; self time = inclusive span minus children")
	}
	res.add("distsim.execute_ms", ms("distsim.execute"), "ms", n)
	res.add("exec.dict.encrypt_cells_per_entry", ratio(rt.delta[cDictEncCells], rt.delta[cDictEncEntries]), "ratio",
		fmt.Sprintf("%.0f cells over %.0f dictionary entries encrypted", rt.delta[cDictEncCells], rt.delta[cDictEncEntries]))
	res.add("go.alloc_mb_per_query", perQ(cAllocBytes)/(1<<20), "MB", n)
	res.add("go.gc_cycles_per_query", perQ(cGCCycles), "count", n)
	res.add("distsim.edges_per_query", perOp(float64(rt.edges), rt.ops), "count", n)
	res.add("distsim.exchange_rows_per_query", perOp(float64(rt.rows), rt.ops), "rows", n)
	res.add("distsim.exchange_bytes_per_query", perOp(float64(rt.bytes), rt.ops), "bytes", n)
	res.add("distsim.exchange_batches_per_query", perOp(float64(rt.batches), rt.ops), "count", n)
	res.add("spill.bytes_written_per_query", perQ(cSpillWritten), "bytes", n)
	res.add("spill.bytes_read_per_query", perQ(cSpillRead), "bytes", n)
	res.add("spill.partitions_per_query", perQ(cSpillParts), "count", n)
	res.add("spill.write_ms", perQ(cSpillWriteSec)*1e3, "ms", n)
	res.add("spill.read_ms", perQ(cSpillReadSec)*1e3, "ms", n)
	res.add("finalize.decrypt_ms", ms("finalize.decrypt"), "ms", n)
	res.add("finalize.run_ms", ms("finalize.run"), "ms", n)

	engOp := perOp(float64(t.busy)/1e6, t.ops)
	replayOp := perOp(float64(rt.opNs)/1e6, rt.ops)
	res.add("trace.overhead_pct", 100*(replayOp-engOp)/engOp, "%",
		fmt.Sprintf("replayed %.3f ms vs engine %.3f ms per operation", replayOp, engOp))
	enginePhaseMs := perOp(phaseS*1e3, t.ops)
	gap := ms(engineLayers...) - enginePhaseMs
	res.add("replay.unaccounted_ms", gap, "ms",
		fmt.Sprintf("replayed layer sum minus engine phase sum (%.3f ms) per operation", enginePhaseMs))
	if math.Abs(gap) > fidelityBound*enginePhaseMs {
		res.correct = false
		fmt.Fprintf(os.Stderr, "perfbench: replay drifted from the engine: layer sum differs from phase sum by %.3f ms of %.3f ms per operation (bound %.0f%%)\n",
			gap, enginePhaseMs, 100*fidelityBound)
	}

	res.modules = rt.moduleShares()
	sort.SliceStable(res.modules, func(i, j int) bool { return res.modules[i].Ms > res.modules[j].Ms })
	path, err := writeSpans(o, rp, res)
	if err != nil {
		return nil, err
	}
	res.spansPath = path
	// Replayed operations count as attempted and checked operations too.
	t.ops += rt.ops
	t.failed += rt.failed
	return t, nil
}

// phaseSeconds sums the engine's own lifecycle phase histograms.
func phaseSeconds(e *engine.Engine) float64 {
	snap := e.Metrics().Snapshot()
	var s float64
	for _, p := range []string{"parse", "plan", "authz", "assign", "keys", "execute", "finalize"} {
		s += snap["mpq_engine_phase_seconds_sum{phase="+p+"}"]
	}
	return s
}

// spanJSON is the serialized form of a span: counter deltas by name, zero
// ones left out.
type spanJSON struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Op       int                `json:"op"`
	Query    int                `json:"query"`
	Name     string             `json:"name"`
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// writeSpans writes the recorded spans, the stamp, and the module split to
// .bench_build/perfbench/spans-<workload>-seed<seed>.json.
func writeSpans(o options, rp *replay, res *result) (string, error) {
	out := make([]spanJSON, len(rp.spans))
	for i, s := range rp.spans {
		out[i] = spanJSON{ID: s.ID, Parent: s.Parent, Op: s.Op, Query: s.Query, Name: s.Name, StartNs: s.Start, EndNs: s.End}
		for k, v := range s.Delta {
			if v != 0 {
				if out[i].Counters == nil {
					out[i].Counters = make(map[string]float64)
				}
				out[i].Counters[counterNames[k]] = v
			}
		}
	}
	path := filepath.Join(o.root, ".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	b, err := json.Marshal(map[string]any{"stamp": res.stamp, "modules": res.modules, "spans": out})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// stamp records the host and settings a result was measured under.
func stamp(o options, w *workload) map[string]any {
	commit := o.commit
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload":            w.name,
		"seed":                o.seed,
		"seconds":             o.seconds,
		"trace":               o.trace,
		"setups":              o.setups,
		"nproc":               runtime.NumCPU(),
		"gomaxprocs":          runtime.GOMAXPROCS(0),
		"go_version":          runtime.Version(),
		"paillier_prime_bits": paillierBits,
		"scenario":            string(w.scenario),
		"sf":                  w.sf,
		"mem_budget_bytes":    w.memBudget,
		"queries":             w.queries,
		"clients":             1,
		"loop":                "closed",
		"git_commit":          commit,
		"source_sha256":       sourceHash(o.root),
	}
}

// sourceHash fingerprints the Go sources and module files of the checkout,
// identifying the measured code where no git metadata is present.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// report prints the stamp, every metric with its unit, the module split of
// a traced run, and, last, the result object.
func report(w io.Writer, res *result) error {
	st, err := json.Marshal(res.stamp)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "stamp %s\n", st)
	for _, m := range res.metrics {
		fmt.Fprintf(w, "metric %-36s %14.6g %-7s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	if len(res.modules) > 0 {
		var total float64
		for _, l := range res.modules {
			total += l.Ms
		}
		for _, l := range res.modules {
			fmt.Fprintf(w, "layer  %-36s %14.6g ms/query %5.1f%%\n", l.Layer, l.Ms, 100*ratio(l.Ms, total))
		}
		fmt.Fprintf(w, "dominant_layer %s\n", res.modules[0].Layer)
		fmt.Fprintf(w, "spans %s\n", res.spansPath)
	}
	for q, n := range res.mismatches {
		fmt.Fprintf(w, "failed Q%d %d operations\n", q, n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(res.metrics))
	for _, m := range res.metrics {
		ms[m.Name] = value{m.Value, m.Unit}
	}
	last, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

// cpuTime returns the process's user+sys CPU time.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// percentile is the Harrell-Davis estimate of the p-quantile of xs: a
// Beta-weighted mean of every order statistic. On a mix of queries with
// distinct latencies it moves smoothly as the mix shifts, where a single
// order statistic jumps from one query's latency to the next.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	a, b := p*(n+1), (1-p)*(n+1)
	var est, prev float64
	for i, x := range s {
		cur := betaInc(a, b, float64(i+1)/n)
		est += (cur - prev) * x
		prev = cur
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes (betai/betacf).
func betaInc(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 10000; m++ {
		aa := m * (b - m) * x / ((a - 1 + 2*m) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 1 + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-14 {
			break
		}
	}
	return h
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
