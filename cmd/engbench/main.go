// Command engbench measures closed-loop engine throughput: N client
// goroutines issue TPC-H queries back-to-back against one engine, and the
// harness reports queries/sec and mean latency per configuration — cold
// (cache disabled, every query re-runs the full authorize/extend/assign/key
// pipeline) vs cached (authorized plans reused) planning. With -stream it
// additionally drives Engine.QueryStream and reports mean time-to-first-row
// next to full latency. With -interior it also records the centralized
// interior microbenchmark (columnar pipeline vs row-at-a-time oracle per
// query, no distribution or planning in the way). -workers sweeps the
// morsel worker pool: each count > 1 adds a batch-cached-wN closed-loop
// cell and a columnar-wN interior cell, so the report shows how
// fragment-internal parallelism scales with cores (bounded by the recorded
// GOMAXPROCS). -membudget sweeps per-query memory budgets: each adds a
// batch-cached-mb<N> cell executing with grace-hash spilling to disk
// whenever live operator state would cross the budget, with the per-query
// spill volume recorded next to throughput. -partial adds a
// batch-cached-partial cell with pre-shuffle partial aggregation (compare
// bytes_per_query). -paillier-bits (alias -paillierbits) sizes the Paillier
// primes and -cryptoworkers the intra-batch crypto worker pool. -planner
// runs the planner-mode A/B sweep over the full 22-query workload: pure
// planning time per query for cost, greedy, and fed (observed-override)
// planning, plus closed-loop end-to-end cells per scenario × mode with the
// adaptive re-plan count recorded next to throughput (-planner-scenarios
// restricts the scenario list). Results are written as JSON
// (BENCH_engine.json in the repo records the measured comparison;
// docs/BENCHMARKS.md explains every cell).
//
//	engbench -scenario UAPenc -sf 0.001 -duration 3s -clients 1,2 -workers 1,4 -membudget 65536 -interior -out BENCH_engine.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpq/internal/distsim"
	"mpq/internal/engine"
	"mpq/internal/exec"
	"mpq/internal/planner"
	"mpq/internal/sql"
	"mpq/internal/tpch"
)

type cell struct {
	Config  string  `json:"config"`
	Clients int     `json:"clients"`
	Queries uint64  `json:"queries"`
	Seconds float64 `json:"seconds"`
	QPS     float64 `json:"qps"`
	MeanMs  float64 `json:"mean_ms"`
	// TTFRMs is the mean time-to-first-row (streaming configurations only).
	TTFRMs float64 `json:"ttfr_ms,omitempty"`
	// BytesPerQuery is the mean inter-subject bytes shipped per completed
	// query — the number the -partial cells move.
	BytesPerQuery float64 `json:"bytes_per_query,omitempty"`
	// SpillBytesPerQuery is the mean bytes written to spill runs per
	// completed query (budgeted -membudget cells only).
	SpillBytesPerQuery float64 `json:"spill_bytes_per_query,omitempty"`
}

type report struct {
	Scenario     string  `json:"scenario"`
	SF           float64 `json:"sf"`
	Seed         int64   `json:"seed"`
	PaillierBits int     `json:"paillier_bits"`
	Queries      []int   `json:"queries"`
	BatchSize    int     `json:"batch_size"`
	// CryptoWorkers is the intra-batch crypto worker pool size (0 =
	// GOMAXPROCS).
	CryptoWorkers int `json:"crypto_workers"`
	// Workers is the swept morsel worker pool sizes (-workers); CPU-bound
	// scaling is bounded by GOMAXPROCS below.
	Workers     []int   `json:"workers"`
	DurationSec float64 `json:"duration_per_cell_sec"`
	// RTTMs and LinkMBps describe the simulated wide-area links between
	// subjects; CPUs, GOMAXPROCS, and GoVersion record the host shape the
	// numbers were measured on. Fragment concurrency overlaps link latency
	// even on one core, while CPU-bound speedups are bounded by GOMAXPROCS.
	RTTMs      float64 `json:"link_rtt_ms"`
	LinkMBps   float64 `json:"link_mbps"`
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Results    []cell  `json:"results"`
	// Metrics is the engine registry snapshot taken after the batch-cached
	// measurement (every series, labels rendered into the key): lifecycle
	// counters, phase latency histograms, plan-cache and crypto totals for
	// the measured process.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Interior holds the centralized interior microbenchmark (-interior):
	// per query, mean plan-execution latency of the columnar batch
	// pipeline vs the row-at-a-time materializing oracle on plaintext
	// tables, with no distribution, crypto, planning, or link simulation.
	Interior []interiorCell `json:"interior,omitempty"`
	// PlannerPlanTimes is the pure planning microbenchmark (-planner): mean
	// time to optimize each workload query under every planner mode, no
	// execution — the cost adaptive mode pays again on every re-plan.
	PlannerPlanTimes []plannerPlanCell `json:"planner_plan_times,omitempty"`
	// PlannerRuns is the end-to-end planner A/B (-planner): closed-loop
	// throughput over the full 22-query mix per scenario × planner mode,
	// with the number of adaptive re-plans observed during the window.
	PlannerRuns []plannerRunCell `json:"planner_runs,omitempty"`
	// Admission is the -concurrency overload sweep: q/s and rejection rate
	// vs offered load with admission control capping in-flight queries.
	Admission []admissionCell `json:"admission,omitempty"`
	// StringDistinct maps "table.column" to the distinct-value ratio of
	// every string column in the generated data — the statistic the
	// dictionary promotion policy gates on (columns at or below the policy's
	// MaxRatio execute on codes).
	StringDistinct map[string]float64 `json:"string_distinct_ratio,omitempty"`
}

// admissionCell is one point of the -concurrency overload sweep: offered
// closed-loop clients vs the engine's in-flight cap, with completed
// throughput and the share of submissions the admission gate shed
// (ErrOverloaded / ErrQueueTimeout) instead of queueing unboundedly.
type admissionCell struct {
	Offered       int     `json:"offered_clients"`
	MaxConcurrent int     `json:"max_concurrent"`
	MaxQueue      int     `json:"max_queue"`
	Completed     uint64  `json:"completed"`
	Rejected      uint64  `json:"rejected"`
	QPS           float64 `json:"qps"`
	RejectRate    float64 `json:"reject_rate"`
}

type interiorCell struct {
	Query  int     `json:"query"`
	Config string  `json:"config"` // "row-oracle" or "columnar"
	Runs   int     `json:"runs"`
	MeanMs float64 `json:"mean_ms"`
}

type plannerPlanCell struct {
	Query int    `json:"query"`
	Mode  string `json:"mode"` // "cost", "greedy", or "fed" (greedy + overrides)
	Runs  int    `json:"runs"`
	// PlanUs is the mean time to plan the query once, in microseconds.
	PlanUs float64 `json:"plan_us"`
}

type plannerRunCell struct {
	Scenario string  `json:"scenario"`
	Mode     string  `json:"mode"` // engine PlannerMode: cost, greedy, adaptive
	Clients  int     `json:"clients"`
	Queries  uint64  `json:"queries"`
	QPS      float64 `json:"qps"`
	MeanMs   float64 `json:"mean_ms"`
	// Replans counts cached plans re-optimized from observed cardinalities
	// during warmup + measurement (adaptive mode only; 0 elsewhere).
	Replans uint64 `json:"replans"`
}

func main() {
	var (
		scenario = flag.String("scenario", "UAPenc", "authorization scenario")
		sf       = flag.Float64("sf", 0.001, "TPC-H scale factor")
		seed     = flag.Int64("seed", 99, "data generator seed")
		paillier = flag.Int("paillier-bits", 128, "Paillier prime size in bits")
		cworkers = flag.Int("cryptoworkers", 0, "intra-batch crypto worker pool size (0 = GOMAXPROCS, negative disables)")
		duration = flag.Duration("duration", 3*time.Second, "measurement window per cell")
		clients  = flag.String("clients", "1,2,4,8", "comma-separated client counts")
		queryStr = flag.String("queries", "3,6,10", "comma-separated TPC-H query numbers")
		batch    = flag.Int("batch", 0, fmt.Sprintf("pipeline batch size in rows (0 = default %d)", exec.DefaultBatchSize))
		workersF = flag.String("workers", "1", "comma-separated morsel worker pool sizes to sweep (1 = single-threaded)")
		stream   = flag.Bool("stream", false, "also measure Engine.QueryStream (time-to-first-row)")
		dictF    = flag.Bool("dict", false, "also measure the cached batch pipeline with dictionary encoding forced off (batch-cached-nodict) next to the default policy (batch-cached-dict)")
		explainF = flag.Bool("explain", false, "print the EXPLAIN ANALYZE tree of each benchmark query (batch pipeline, cached plans) before measuring")
		interior = flag.Bool("interior", false, "also record the centralized interior microbenchmark (columnar vs row oracle)")
		plannerF = flag.Bool("planner", false, "also record the planner-mode A/B sweep: plan-time per query for cost/greedy/fed planning, plus end-to-end cells per scenario for cost, greedy, and adaptive engines over the full 22-query workload")
		plannerS = flag.String("planner-scenarios", "UA,UAPenc,UAPmix", "comma-separated scenario list for the -planner end-to-end cells")
		budgetsF = flag.String("membudget", "", "comma-separated per-query memory budgets in bytes to sweep: each adds a batch-cached-mb<N> cell executing under that budget with grace-hash spilling to disk")
		partialF = flag.Bool("partial", false, "also measure pre-shuffle partial aggregation (batch-cached-partial cell; compare bytes_per_query against batch-cached)")
		concF    = flag.Int("concurrency", 0, "overload sweep: cap the engine at this many in-flight queries (queue the same, 100ms wait) and offer 1x/2x/4x closed-loop clients, recording q/s and rejection rate per offered load (0 = off)")
		rtt      = flag.Duration("rtt", 40*time.Millisecond, "simulated inter-subject link RTT (0 disables)")
		mbps     = flag.Float64("mbps", 50, "simulated link bandwidth in MB/s (with -rtt > 0)")
		out      = flag.String("out", "", "write the JSON report to this file (default stdout)")
	)
	// -paillierbits is an alias of -paillier-bits.
	flag.IntVar(paillier, "paillierbits", *paillier, "Paillier prime size in bits (alias of -paillier-bits)")
	flag.Parse()

	clientCounts, err := parseInts(*clients)
	if err != nil {
		log.Fatalf("engbench: -clients: %v", err)
	}
	queryNums, err := parseInts(*queryStr)
	if err != nil {
		log.Fatalf("engbench: -queries: %v", err)
	}
	workerCounts, err := parseInts(*workersF)
	if err != nil {
		log.Fatalf("engbench: -workers: %v", err)
	}
	var budgets []int
	if *budgetsF != "" {
		if budgets, err = parseInts(*budgetsF); err != nil {
			log.Fatalf("engbench: -membudget: %v", err)
		}
	}
	sqls := make([]string, 0, len(queryNums))
	for _, num := range queryNums {
		found := false
		for _, q := range tpch.Queries() {
			if q.Num == num {
				sqls = append(sqls, q.SQL)
				found = true
			}
		}
		if !found {
			log.Fatalf("engbench: no TPC-H query %d", num)
		}
	}

	rep := report{
		Scenario:      *scenario,
		SF:            *sf,
		Seed:          *seed,
		PaillierBits:  *paillier,
		Queries:       queryNums,
		BatchSize:     *batch,
		CryptoWorkers: *cworkers,
		Workers:       workerCounts,
		DurationSec:   duration.Seconds(),
		RTTMs:         float64(rtt.Milliseconds()),
		LinkMBps:      *mbps,
		CPUs:          runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
	}
	if rep.GOMAXPROCS == 1 {
		for _, w := range workerCounts {
			if w > 1 {
				log.Printf("engbench: warning: -workers %d on a 1-CPU host (GOMAXPROCS=1): morsel workers will time-slice one core, so the wN cells cannot show parallel speedup", w)
				break
			}
		}
	}
	var delay *distsim.LinkDelay
	if *rtt > 0 {
		delay = &distsim.LinkDelay{RTT: *rtt, BytesPerSec: *mbps * 1e6}
	}

	// Record each string column's distinct ratio: which columns the
	// dictionary policy promotes is a property of the data, and readers of
	// the -dict cells need it to interpret the delta.
	rep.StringDistinct = stringDistinctRatios(*sf, *seed)
	if *dictF && len(rep.StringDistinct) == 0 {
		log.Printf("engbench: warning: -dict sweep on a dataset with no string columns: dictionary encoding has nothing to promote, the dict/nodict cells will match")
	}

	type config struct {
		name      string
		cached    bool
		stream    bool
		workers   int
		dictOff   bool  // force dictionary promotion off for this cell
		memBudget int64 // per-query budget in bytes (0 = unbudgeted)
		partial   bool  // pre-shuffle partial aggregation
	}
	configs := []config{
		{name: "batch-cold"},
		{name: "batch-cached", cached: true},
		{name: "batch-stream-cached", cached: true, stream: true},
	}
	// The -workers sweep: the cached batch pipeline re-measured per morsel
	// worker pool size (workers=1 is the plain batch-cached cell above).
	for _, w := range workerCounts {
		if w > 1 {
			configs = append(configs, config{name: fmt.Sprintf("batch-cached-w%d", w), cached: true, workers: w})
		}
	}
	// The -dict sweep: the cached batch pipeline under the default
	// dictionary policy vs with promotion forced off, isolating what
	// executing on codes (and encrypting each distinct value once) buys.
	if *dictF {
		configs = append(configs,
			config{name: "batch-cached-dict", cached: true},
			config{name: "batch-cached-nodict", cached: true, dictOff: true})
	}
	// The -membudget sweep: the cached batch pipeline re-measured per budget,
	// spilling to disk whenever live operator state would cross it. Compare
	// against batch-cached (unbudgeted) for the out-of-core slowdown.
	for _, mb := range budgets {
		configs = append(configs, config{name: fmt.Sprintf("batch-cached-mb%d", mb), cached: true, memBudget: int64(mb)})
	}
	// The -partial cell: pre-shuffle partial aggregation folds group
	// aggregates producer-side, so bytes_per_query drops against batch-cached
	// on aggregation-heavy mixes.
	if *partialF {
		configs = append(configs, config{name: "batch-cached-partial", cached: true, partial: true})
	}
	for _, c := range configs {
		if c.stream && !*stream {
			continue
		}
		var restoreDict *exec.DictPolicy
		if c.dictOff {
			// Off for this cell only: engine construction below regenerates
			// the tables, so their columnar caches build under the policy
			// active here. Restored after this config's cells.
			old := exec.SetDictPolicy(exec.DictPolicy{MinRows: 1, MaxRatio: 0})
			restoreDict = &old
		}
		cfg := engine.TPCHConfig(tpch.Scenario(*scenario), *sf, *seed)
		cfg.BatchSize = *batch
		cfg.PaillierBits = *paillier
		cfg.CryptoWorkers = *cworkers
		cfg.Workers = c.workers
		cfg.LinkDelay = delay
		cfg.MemBudget = c.memBudget
		cfg.PartialShuffle = c.partial
		if c.memBudget > 0 {
			dir, err := os.MkdirTemp("", "engbench-spill-*")
			if err != nil {
				log.Fatalf("engbench: %v", err)
			}
			defer os.RemoveAll(dir)
			cfg.SpillDir = dir
		}
		if !c.cached {
			cfg.CacheSize = -1
		}
		eng, err := engine.New(cfg)
		if err != nil {
			log.Fatalf("engbench: %v", err)
		}
		if c.cached { // warm every plan before measuring
			for _, s := range sqls {
				if _, err := eng.Query(s); err != nil {
					log.Fatalf("engbench: warmup: %v", err)
				}
			}
		}
		if *explainF && c.name == "batch-cached" {
			for i, s := range sqls {
				ex, err := eng.Explain(s)
				if err != nil {
					log.Fatalf("engbench: explain Q%d: %v", queryNums[i], err)
				}
				fmt.Fprintf(os.Stderr, "--- EXPLAIN ANALYZE Q%d ---\n%s", queryNums[i], ex.Text())
			}
		}
		for _, n := range clientCounts {
			statsBefore := eng.Stats()
			spillBefore := exec.ReadSpillStats()
			res := run(eng, sqls, n, *duration, c.stream)
			res.Config = c.name
			if res.Queries > 0 {
				shipped := eng.Stats().BytesShipped - statsBefore.BytesShipped
				res.BytesPerQuery = float64(shipped) / float64(res.Queries)
				if c.memBudget > 0 {
					spilled := exec.ReadSpillStats().BytesWritten - spillBefore.BytesWritten
					res.SpillBytesPerQuery = float64(spilled) / float64(res.Queries)
				}
			}
			rep.Results = append(rep.Results, res)
			extra := ""
			if c.stream {
				extra = fmt.Sprintf("  %8.2f ms-to-first-row", res.TTFRMs)
			}
			if c.memBudget > 0 {
				extra += fmt.Sprintf("  %.0f spill-B/query", res.SpillBytesPerQuery)
			}
			log.Printf("%-20s clients=%d  %7.2f q/s  %8.2f ms/query%s", c.name, n, res.QPS, res.MeanMs, extra)
		}
		// Keep the registry snapshot of the flagship configuration (falling
		// back to whichever ran last): the per-process crypto totals, phase
		// histograms, and cache counters behind the measured numbers.
		if snap := eng.Metrics().Snapshot(); rep.Metrics == nil || c.name == "batch-cached" {
			rep.Metrics = snap
		}
		if restoreDict != nil {
			exec.SetDictPolicy(*restoreDict)
		}
	}

	if *concF > 0 {
		rep.Admission = measureAdmission(*scenario, *sf, *seed, *paillier, *cworkers, *batch, *duration, delay, *concF, sqls)
	}
	if *interior {
		rep.Interior = measureInterior(*sf, *seed, queryNums, *duration, workerCounts)
	}
	if *plannerF {
		var scs []string
		for _, s := range strings.Split(*plannerS, ",") {
			if s = strings.TrimSpace(s); s != "" {
				scs = append(scs, s)
			}
		}
		rep.PlannerPlanTimes = measurePlanTimes(*sf)
		rep.PlannerRuns = measurePlannerRuns(scs, *sf, *seed, *paillier, *cworkers, *batch, *duration, delay)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("engbench: wrote %s\n", *out)
}

// stringDistinctRatios generates the benchmark dataset once and measures,
// for every string column, distinct values / rows — the statistic the
// dictionary promotion policy compares against its MaxRatio gate.
func stringDistinctRatios(sf float64, seed int64) map[string]float64 {
	out := make(map[string]float64)
	for name, tbl := range tpch.Generate(sf, seed) {
		if len(tbl.Rows) == 0 {
			continue
		}
		for ci, attr := range tbl.Schema {
			distinct := make(map[string]bool)
			strs, others := 0, 0
			for _, row := range tbl.Rows {
				switch v := row[ci]; v.Kind {
				case exec.KString:
					strs++
					distinct[v.S] = true
				case exec.KNull:
				default:
					others++
				}
				if others > 0 {
					break
				}
			}
			if strs > 0 && others == 0 {
				out[name+"."+attr.Name] = float64(len(distinct)) / float64(len(tbl.Rows))
			}
		}
	}
	return out
}

// measureAdmission drives the overload sweep: one engine capped at maxConc
// in-flight queries (wait queue of the same depth, 100ms wait), offered
// 1x/2x/4x the cap in closed-loop clients. Sheds — ErrOverloaded and
// ErrQueueTimeout — are counted, any other failure is fatal: under overload
// the engine must reject cleanly, never hang, crash, or queue unboundedly.
func measureAdmission(sc string, sf float64, seed int64, paillierBits, cworkers, batch int, window time.Duration, delay *distsim.LinkDelay, maxConc int, sqls []string) []admissionCell {
	cfg := engine.TPCHConfig(tpch.Scenario(sc), sf, seed)
	cfg.PaillierBits = paillierBits
	cfg.CryptoWorkers = cworkers
	cfg.BatchSize = batch
	cfg.LinkDelay = delay
	cfg.MaxConcurrent = maxConc
	cfg.MaxQueue = maxConc
	cfg.QueueWait = 100 * time.Millisecond
	eng, err := engine.New(cfg)
	if err != nil {
		log.Fatalf("engbench: admission: %v", err)
	}
	for _, s := range sqls { // warm the plan cache outside the contention window
		if _, err := eng.Query(s); err != nil {
			log.Fatalf("engbench: admission warmup: %v", err)
		}
	}
	var out []admissionCell
	for _, mult := range []int{1, 2, 4} {
		offered := maxConc * mult
		var done atomic.Bool
		var completed, rejected atomic.Uint64
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < offered; c++ {
			wg.Add(1)
			go func(offset int) {
				defer wg.Done()
				for i := offset; !done.Load(); i++ {
					_, err := eng.Query(sqls[i%len(sqls)])
					switch {
					case err == nil:
						completed.Add(1)
					case engine.ClassifyErr(err) == engine.KindOverloaded,
						engine.ClassifyErr(err) == engine.KindQueueTimeout:
						rejected.Add(1)
						// Back off like a retrying client would; without
						// this the shed path is a hot spin loop and the
						// rejection count measures loop speed, not load.
						time.Sleep(5 * time.Millisecond)
					default:
						log.Fatalf("engbench: admission: %v", err)
					}
				}
			}(c)
		}
		time.Sleep(window)
		done.Store(true)
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		cell := admissionCell{
			Offered:       offered,
			MaxConcurrent: maxConc,
			MaxQueue:      maxConc,
			Completed:     completed.Load(),
			Rejected:      rejected.Load(),
		}
		if elapsed > 0 {
			cell.QPS = float64(cell.Completed) / elapsed
		}
		if total := cell.Completed + cell.Rejected; total > 0 {
			cell.RejectRate = float64(cell.Rejected) / float64(total)
		}
		out = append(out, cell)
		log.Printf("admission offered=%d cap=%d  %7.2f q/s  %5.1f%% rejected (%d/%d)",
			offered, maxConc, cell.QPS, cell.RejectRate*100, cell.Rejected, cell.Completed+cell.Rejected)
	}
	return out
}

// measureInterior times centralized plan execution per query for the
// columnar batch pipeline (at every swept morsel worker count) and the
// row-at-a-time materializing oracle on plaintext TPC-H tables: the
// interior-only comparison, one warmup run and then as many runs as fit in
// the measurement window.
func measureInterior(sf float64, seed int64, nums []int, window time.Duration, workerCounts []int) []interiorCell {
	cat := tpch.Catalog(sf)
	tables := tpch.Generate(sf, seed)
	pl := planner.New(cat)
	type mode struct {
		name    string
		mat     bool
		workers int
	}
	modes := []mode{{"row-oracle", true, 0}}
	for _, w := range workerCounts {
		name := "columnar"
		if w > 1 {
			name = fmt.Sprintf("columnar-w%d", w)
		}
		modes = append(modes, mode{name, false, w})
	}
	var out []interiorCell
	for _, num := range nums {
		var sqlText string
		for _, q := range tpch.Queries() {
			if q.Num == num {
				sqlText = q.SQL
			}
		}
		plan, err := pl.PlanSQL(sqlText)
		if err != nil {
			log.Fatalf("engbench: interior Q%d: %v", num, err)
		}
		for _, mode := range modes {
			e := exec.NewExecutor()
			e.Materializing = mode.mat
			e.Workers = mode.workers
			for name, t := range tables {
				e.Tables[name] = t
			}
			if _, _, err := e.RunPlan(plan); err != nil { // warmup
				log.Fatalf("engbench: interior Q%d: %v", num, err)
			}
			runs := 0
			start := time.Now()
			for time.Since(start) < window {
				if _, _, err := e.RunPlan(plan); err != nil {
					log.Fatalf("engbench: interior Q%d: %v", num, err)
				}
				runs++
			}
			meanMs := time.Since(start).Seconds() * 1000 / float64(runs)
			out = append(out, interiorCell{Query: num, Config: mode.name, Runs: runs, MeanMs: meanMs})
			log.Printf("interior %-10s Q%02d  %4d runs  %8.2f ms/run", mode.name, num, runs, meanMs)
		}
	}
	return out
}

// measurePlanTimes times pure optimization — parse once, PlanWith in a
// loop — for every workload query under the three planning variants:
// FROM-order cost-based ("cost"), pattern-based greedy ("greedy"), and
// greedy fed with cardinality overrides ("fed", the work an adaptive
// re-plan performs; the overrides here pin every base relation to its
// catalog row count, which exercises the cardinality-driven expansion
// without needing a traced execution). Planning reads only the catalog, so
// the numbers are scenario-independent.
func measurePlanTimes(sf float64) []plannerPlanCell {
	cat := tpch.Catalog(sf)
	pl := planner.New(cat)
	fed := planner.NewOverrides()
	for _, name := range tpch.TableNames() {
		fed.BaseRows[name] = cat.Relation(name).Rows
	}
	variants := []struct {
		name string
		opts planner.PlanOptions
	}{
		{"cost", planner.PlanOptions{}},
		{"greedy", planner.PlanOptions{Mode: planner.ModeGreedy}},
		{"fed", planner.PlanOptions{Mode: planner.ModeGreedy, Overrides: fed}},
	}
	const (
		maxRuns   = 2000
		perWindow = 20 * time.Millisecond
	)
	var out []plannerPlanCell
	for _, q := range tpch.Queries() {
		stmt, err := sql.Parse(q.SQL)
		if err != nil {
			log.Fatalf("engbench: planner Q%d: %v", q.Num, err)
		}
		for _, v := range variants {
			if _, err := pl.PlanWith(stmt, v.opts); err != nil { // warmup + sanity
				log.Fatalf("engbench: planner Q%d (%s): %v", q.Num, v.name, err)
			}
			runs := 0
			start := time.Now()
			for time.Since(start) < perWindow && runs < maxRuns {
				if _, err := pl.PlanWith(stmt, v.opts); err != nil {
					log.Fatalf("engbench: planner Q%d (%s): %v", q.Num, v.name, err)
				}
				runs++
			}
			us := time.Since(start).Seconds() * 1e6 / float64(runs)
			out = append(out, plannerPlanCell{Query: q.Num, Mode: v.name, Runs: runs, PlanUs: us})
		}
	}
	for _, v := range variants {
		var sum float64
		for _, c := range out {
			if c.Mode == v.name {
				sum += c.PlanUs
			}
		}
		log.Printf("planner plan-time %-6s  %8.1f µs/query mean over %d queries", v.name, sum/float64(len(tpch.Queries())), len(tpch.Queries()))
	}
	return out
}

// measurePlannerRuns runs the end-to-end planner A/B: one engine per
// scenario × planner mode, the full 22-query workload as the closed-loop
// mix. Warmup submits every query twice — for adaptive engines the first
// run traces observed cardinalities and the second triggers any re-plans —
// so the measured window reflects each mode's steady state. The adaptive
// cell reports how many cached plans were re-optimized in total.
func measurePlannerRuns(scenarios []string, sf float64, seed int64, paillierBits, cworkers, batch int, window time.Duration, delay *distsim.LinkDelay) []plannerRunCell {
	sqls := make([]string, 0, len(tpch.Queries()))
	for _, q := range tpch.Queries() {
		sqls = append(sqls, q.SQL)
	}
	var out []plannerRunCell
	for _, sc := range scenarios {
		for _, mode := range []string{engine.PlannerCost, engine.PlannerGreedy, engine.PlannerAdaptive} {
			cfg := engine.TPCHConfig(tpch.Scenario(sc), sf, seed)
			cfg.PaillierBits = paillierBits
			cfg.CryptoWorkers = cworkers
			cfg.BatchSize = batch
			cfg.LinkDelay = delay
			cfg.PlannerMode = mode
			eng, err := engine.New(cfg)
			if err != nil {
				log.Fatalf("engbench: planner %s/%s: %v", sc, mode, err)
			}
			for pass := 0; pass < 2; pass++ { // trace, then re-plan
				for _, s := range sqls {
					if _, err := eng.Query(s); err != nil {
						log.Fatalf("engbench: planner %s/%s warmup: %v", sc, mode, err)
					}
				}
			}
			res := run(eng, sqls, 1, window, false)
			c := plannerRunCell{
				Scenario: sc,
				Mode:     mode,
				Clients:  res.Clients,
				Queries:  res.Queries,
				QPS:      res.QPS,
				MeanMs:   res.MeanMs,
				Replans:  eng.Stats().Replans,
			}
			out = append(out, c)
			log.Printf("planner %-6s %-6s  %7.2f q/s  %8.2f ms/query  %d replans", sc, mode, c.QPS, c.MeanMs, c.Replans)
		}
	}
	return out
}

// run drives the closed loop: clients goroutines issue the query mix
// round-robin until the window elapses. With stream set, clients use
// QueryStream (discarding the rows) and the cell also reports the mean
// time-to-first-row.
func run(eng *engine.Engine, sqls []string, clients int, window time.Duration, stream bool) cell {
	var done atomic.Bool
	var completed atomic.Uint64
	var ttfrNanos atomic.Uint64
	var wg sync.WaitGroup
	discard := func([]string, [][]exec.Value) error { return nil }
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(offset int) {
			defer wg.Done()
			for i := offset; !done.Load(); i++ {
				q := sqls[i%len(sqls)]
				if stream {
					resp, err := eng.QueryStream(q, discard)
					if err != nil {
						log.Fatalf("engbench: query: %v", err)
					}
					ttfrNanos.Add(uint64(resp.TimeToFirstRow.Nanoseconds()))
				} else if _, err := eng.Query(q); err != nil {
					log.Fatalf("engbench: query: %v", err)
				}
				completed.Add(1)
			}
		}(c)
	}
	time.Sleep(window)
	done.Store(true)
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	n := completed.Load()
	res := cell{Clients: clients, Queries: n, Seconds: elapsed}
	if elapsed > 0 {
		res.QPS = float64(n) / elapsed
	}
	if n > 0 {
		res.MeanMs = elapsed * 1000 * float64(clients) / float64(n)
		if stream {
			res.TTFRMs = float64(ttfrNanos.Load()) / 1e6 / float64(n)
		}
	}
	return res
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad entry %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
