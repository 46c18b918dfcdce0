package main

import (
	"math"
	"testing"
)

// testRun runs one round of a workload in-process, rooted at the checkout.
func testRun(t *testing.T, workload string, seed int64, trace bool) *result {
	t.Helper()
	res, err := run(options{workload: workload, seed: seed, trace: trace, setups: 1, root: ".."})
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	return res
}

func (r *result) value(name string) (float64, bool) {
	for _, m := range r.metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// TestExactCountsRepeat runs every workload twice at one seed, traced, and
// asserts that the counts that do not depend on timing repeat exactly:
// ledger bytes and modeled cost per query, crypto values per scheme and
// direction, and spill volume.
//
// One exception: the ledger charges each Paillier ciphertext its minimal
// encoding, whose length depends on the key, and every run generates fresh
// random keys. On a workload that encrypts under Paillier the bytes shipped
// therefore differ slightly between runs; there the test asserts that the
// rows shipped repeat exactly and logs the byte difference.
func TestExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			a := testRun(t, w.name, 7, true)
			b := testRun(t, w.name, 7, true)
			if len(a.exact) == 0 {
				t.Fatal("no exact counts recorded")
			}
			paillier := a.exact["crypto.phe.encrypt_values"] > 0
			for name, va := range a.exact {
				vb := b.exact[name]
				if name == "bytes_shipped_per_query" && paillier {
					t.Logf("%s (key-dependent under Paillier): %v then %v", name, va, vb)
					continue
				}
				if va != vb {
					t.Errorf("%s: %v then %v", name, va, vb)
				}
			}
		})
	}
}

// TestHeldOutSeed runs every workload untraced on a seed used nowhere else
// and asserts that no operation failed or returned a wrong result.
func TestHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	const heldOut = 90210
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			res := testRun(t, w.name, heldOut, false)
			if !res.correct || res.failed != 0 {
				t.Fatalf("correct=%v failed=%d of %d attempted (by query: %v)", res.correct, res.failed, res.attempted, res.mismatches)
			}
			if _, ok := res.value("latency_p50_ms"); !ok {
				t.Fatal("latency_p50_ms not reported")
			}
		})
	}
}

// TestPercentileHD checks the Harrell-Davis estimator on a uniform sample
// and the incomplete beta function on a closed-form value.
func TestPercentileHD(t *testing.T) {
	xs := make([]float64, 1001)
	for i := range xs {
		xs[i] = float64(i)
	}
	for _, p := range []float64{0.1, 0.5, 0.9} {
		if got, want := percentile(xs, p), p*1000; math.Abs(got-want) > 1 {
			t.Errorf("p%.0f = %v, want about %v", p*100, got, want)
		}
	}
	if got := betaInc(2, 3, 0.4); math.Abs(got-0.5248) > 1e-4 {
		t.Errorf("I_0.4(2,3) = %v, want 0.5248", got)
	}
}
