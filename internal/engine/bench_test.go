package engine

import (
	"testing"

	"mpq/internal/tpch"
)

// The engine benchmarks measure what plan caching buys on the parallel
// fragment runtime: cold re-plans every query, cached reuses the authorized
// plan. cmd/engbench runs the closed-loop throughput version of these and
// records BENCH_engine.json.

func benchEngine(b *testing.B, cached bool) {
	cfg := TPCHConfig(tpch.UAPenc, testSF, testSeed)
	cfg.PaillierBits = testPaillierBits
	if !cached {
		cfg.CacheSize = -1
	}
	eng, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sqlText := querySQL(b, 6)
	if cached {
		if _, err := eng.Query(sqlText); err != nil { // warm the plan cache
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(sqlText); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryColdParallel(b *testing.B)   { benchEngine(b, false) }
func BenchmarkQueryCachedParallel(b *testing.B) { benchEngine(b, true) }

// BenchmarkQueryConcurrentClients measures cached parallel throughput under
// concurrent load (RunParallel spawns GOMAXPROCS clients).
func BenchmarkQueryConcurrentClients(b *testing.B) {
	cfg := TPCHConfig(tpch.UAPenc, testSF, testSeed)
	cfg.PaillierBits = testPaillierBits
	eng, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sqlText := querySQL(b, 6)
	if _, err := eng.Query(sqlText); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := eng.Query(sqlText); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
