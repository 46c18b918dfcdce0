package crypto

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"math/bits"
	"testing"
)

// TestCRTRandomizerMatchesExp checks the CRT fixed-base randomizer value by
// value against a direct hn^ρ mod n², for both orderings of the factors and
// exponents at the edges of the ρ range and of the factor orders.
func TestCRTRandomizerMatchesExp(t *testing.T) {
	for _, primeBits := range []int{64, 128, 256, 512} {
		t.Run(fmt.Sprintf("bits=%d", primeBits), func(t *testing.T) {
			pk, err := GeneratePaillier(primeBits)
			if err != nil {
				t.Fatal(err)
			}
			h, err := pk.randomUnit()
			if err != nil {
				t.Fatal(err)
			}
			hn := new(big.Int).Exp(h, pk.N, pk.N2)
			one := big.NewInt(1)
			pOrd, qOrd := new(big.Int).Sub(pk.p, one), new(big.Int).Sub(pk.q, one)
			expBits := roundUpWindow(pk.N.BitLen())
			rhos := []*big.Int{
				big.NewInt(0), big.NewInt(1), pOrd, qOrd,
				new(big.Int).Mul(pOrd, qOrd),
				new(big.Int).Sub(new(big.Int).Lsh(one, uint(expBits)), one),
			}
			limit := new(big.Int).Lsh(one, uint(expBits))
			for i := 0; i < 200; i++ {
				r, err := rand.Int(rand.Reader, limit)
				if err != nil {
					t.Fatal(err)
				}
				rhos = append(rhos, r)
			}
			for _, c := range []*crtRandomizer{
				newCRTRandomizer(pk.p, pk.q, hn, pk.N.BitLen()),
				newCRTRandomizer(pk.q, pk.p, hn, pk.N.BitLen()),
			} {
				if c == nil {
					t.Fatal("generated key built no CRT tables")
				}
				var s encScratch
				for _, rho := range rhos {
					want := new(big.Int).Exp(hn, rho, pk.N2)
					if got := c.exp(rho, &s); got.Cmp(want) != 0 {
						t.Fatalf("ρ=%v: CRT randomizer %v, want %v", rho, got, want)
					}
				}
			}
		})
	}
}

// TestMulGmMatchesTextbook checks the message term rn + n·((m·rn) mod n)
// against the textbook (1 + m·n)·rn mod n², negative messages included.
func TestMulGmMatchesTextbook(t *testing.T) {
	pk, err := GeneratePaillier(96)
	if err != nil {
		t.Fatal(err)
	}
	one := big.NewInt(1)
	top := new(big.Int).Sub(pk.half, one)
	msgs := []*big.Int{
		big.NewInt(0), one, big.NewInt(-1), top, new(big.Int).Neg(top),
	}
	for i := 0; i < 100; i++ {
		m, err := rand.Int(rand.Reader, pk.half)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			m.Neg(m)
		}
		msgs = append(msgs, m)
	}
	var s encScratch
	for _, m := range msgs {
		rn, err := rand.Int(rand.Reader, pk.N2)
		if err != nil {
			t.Fatal(err)
		}
		gm := new(big.Int).Mul(new(big.Int).Mod(m, pk.N), pk.N)
		gm.Add(gm, one)
		want := gm.Mul(gm, rn)
		want.Mod(want, pk.N2)
		if got := pk.mulGm(rn, m, &s); got.Cmp(want) != 0 {
			t.Fatalf("m=%v rn=%v: got %v, want %v", m, rn, got, want)
		}
	}
}

// checkMontMul compares montMul against a·b·R⁻¹ mod m computed with
// big.Int: z < m and z·R ≡ a·b (mod m).
func checkMontMul(t *testing.T, m, a, b *big.Int) {
	t.Helper()
	k := len(m.Bits())
	words := func(x *big.Int) []big.Word {
		w := make([]big.Word, k)
		copy(w, x.Bits())
		return w
	}
	z := make([]big.Word, k)
	montMul(z, words(a), words(b), m.Bits(), montInv(m.Bits()[0]), make([]big.Word, k))
	got := new(big.Int).SetBits(z)
	lhs := new(big.Int).Lsh(got, uint(k*bits.UintSize))
	lhs.Mod(lhs, m)
	rhs := new(big.Int).Mul(a, b)
	rhs.Mod(rhs, m)
	if got.Cmp(m) >= 0 || lhs.Cmp(rhs) != 0 {
		t.Fatalf("montMul(%v, %v) mod %v = %v", a, b, m, got)
	}
}

// FuzzMontMul checks the Montgomery kernel against big.Int for odd moduli
// of 1 to 32 words, including moduli whose top word is all ones.
func FuzzMontMul(f *testing.F) {
	for _, k := range []int{1, 2, 4, 8, 32} {
		ones := make([]byte, k*bits.UintSize/8)
		for i := range ones {
			ones[i] = 0xff
		}
		f.Add(ones, ones, ones) // m = 2^(W·k) − 1, operands m − 1 after reduction
		f.Add(ones, []byte{1}, []byte{2})
	}
	f.Add([]byte{3}, []byte{2}, []byte{2})
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0, 1}, []byte{0x7f, 0xff}, []byte{0xff})
	f.Fuzz(func(t *testing.T, mb, ab, bb []byte) {
		if maxBytes := 32 * bits.UintSize / 8; len(mb) > maxBytes {
			mb = mb[:maxBytes]
		}
		m := new(big.Int).SetBytes(mb)
		m.SetBit(m, 0, 1)
		a := new(big.Int).SetBytes(ab)
		a.Mod(a, m)
		b := new(big.Int).SetBytes(bb)
		b.Mod(b, m)
		checkMontMul(t, m, a, b)
	})
}

// montBenchLimbs are the modulus widths of the randomizer tables at 128-,
// 256- and 512-bit primes (p² of 256, 512 and 1024 bits) on 64-bit words.
var montBenchLimbs = []int{4, 8, 16}

// BenchmarkMontMul measures one table multiplication of the randomizer
// kernel. It must report 0 allocs/op: the scratch is caller-owned.
func BenchmarkMontMul(b *testing.B) {
	for _, k := range montBenchLimbs {
		b.Run(fmt.Sprintf("limbs=%d", k), func(b *testing.B) {
			m, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), uint(k*bits.UintSize)))
			if err != nil {
				b.Fatal(err)
			}
			m.SetBit(m, k*bits.UintSize-1, 1)
			m.SetBit(m, 0, 1)
			x, y := make([]big.Word, k), make([]big.Word, k)
			xi, _ := rand.Int(rand.Reader, m)
			yi, _ := rand.Int(rand.Reader, m)
			copy(x, xi.Bits())
			copy(y, yi.Bits())
			mw, mInv, t := m.Bits(), montInv(m.Bits()[0]), make([]big.Word, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				montMul(x, x, y, mw, mInv, t)
			}
		})
	}
}

// BenchmarkPaillierRandomizer measures one randomizer computed from the
// CRT fixed-base tables (a pool miss) at 128-, 256- and 512-bit primes.
func BenchmarkPaillierRandomizer(b *testing.B) {
	for _, primeBits := range []int{128, 256, 512} {
		b.Run(fmt.Sprintf("bits=%d", primeBits), func(b *testing.B) {
			pk, err := GeneratePaillier(primeBits)
			if err != nil {
				b.Fatal(err)
			}
			if err := pk.Precompute(); err != nil {
				b.Fatal(err)
			}
			pre := pk.pre.Load()
			var s encScratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pk.newRandomizer(pre, &s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
