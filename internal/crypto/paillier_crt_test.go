package crypto

import (
	"bytes"
	"encoding/gob"
	"math/big"
	"testing"
)

// textbookCopy strips the CRT state off a private key, forcing Decrypt onto
// the single full-width exponentiation (the path legacy wire blobs use).
func textbookCopy(p *Paillier) *Paillier {
	tb := newPaillierPublic(p.N)
	tb.lambda, tb.mu = p.lambda, p.mu
	return tb
}

// TestPaillierCRTMatchesTextbook proves the CRT decryption is exactly
// equivalent to the textbook path on generated keys, across signs and
// magnitudes up to the message bound.
func TestPaillierCRTMatchesTextbook(t *testing.T) {
	pk, err := GeneratePaillier(96)
	if err != nil {
		t.Fatal(err)
	}
	if pk.p == nil {
		t.Fatal("generated key has no CRT state")
	}
	tb := textbookCopy(pk)
	half := new(big.Int).Rsh(pk.N, 1)
	msgs := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(-1),
		big.NewInt(1 << 40), big.NewInt(-(1 << 40)),
		new(big.Int).Sub(half, big.NewInt(1)),
		new(big.Int).Neg(new(big.Int).Sub(half, big.NewInt(1))),
	}
	for _, m := range msgs {
		c, err := pk.Encrypt(m)
		if err != nil {
			t.Fatal(err)
		}
		crt, err := pk.Decrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := tb.Decrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		if crt.Cmp(plain) != 0 || crt.Cmp(m) != 0 {
			t.Fatalf("m=%v: crt=%v textbook=%v", m, crt, plain)
		}
	}
}

// TestPaillierWireCRTRoundTrip checks that a marshaled full ring carries the
// factor across the wire and the unmarshaled key decrypts on the CRT path.
func TestPaillierWireCRTRoundTrip(t *testing.T) {
	kr, err := NewKeyRing("kCRT", 96)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := kr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalKeyRing(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.PK.p == nil {
		t.Fatal("wire ring lost the CRT factor")
	}
	c, _ := kr.PK.Encrypt(big.NewInt(-987654321))
	m, err := got.PK.Decrypt(c)
	if err != nil || m.Int64() != -987654321 {
		t.Fatalf("wire CRT decrypt = %v, %v", m, err)
	}
	// The unmarshaled ring builds the CRT randomizer tables, and its batch
	// ciphertexts decrypt on both sides of the wire.
	checkBatchRoundTrip(t, got.PK, kr.PK)
	if pre := got.PK.pre.Load(); pre == nil || pre.crt == nil {
		t.Fatal("wire ring with the factor built no CRT randomizer tables")
	}
}

// checkBatchRoundTrip encrypts a batch large enough to precompute with enc
// and decrypts every value with enc and with dec.
func checkBatchRoundTrip(t *testing.T, enc, dec *Paillier) {
	t.Helper()
	ms := make([]*big.Int, 2*paillierBatchPrecompute)
	for i := range ms {
		ms[i] = big.NewInt(int64(i*i - 100))
	}
	cts, err := enc.EncryptBatch(ms)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range ms {
		for _, k := range []*Paillier{enc, dec} {
			if got, err := k.Decrypt(cts[i]); err != nil || got.Cmp(m) != 0 {
				t.Fatalf("Decrypt(batch[%d]) = %v, %v; want %v", i, got, err, m)
			}
		}
	}
}

// TestPaillierLegacyBlobFallsBack decodes a blob without the factor field
// (what an older sender emits) and checks the key still decrypts, on the
// textbook path.
func TestPaillierLegacyBlobFallsBack(t *testing.T) {
	kr, err := NewKeyRing("kOld", 96)
	if err != nil {
		t.Fatal(err)
	}
	// A legacy sender's wire form: same struct, no P.
	type legacyRing struct {
		ID     string
		Master []byte
		N      *big.Int
		Lambda *big.Int
		Mu     *big.Int
	}
	w := legacyRing{ID: "kOld", Master: kr.Master, N: kr.PK.N, Lambda: kr.PK.lambda, Mu: kr.PK.mu}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalKeyRing(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.PK.p != nil {
		t.Fatal("legacy blob grew CRT state")
	}
	c, _ := kr.PK.Encrypt(big.NewInt(314159))
	m, err := got.PK.Decrypt(c)
	if err != nil || m.Int64() != 314159 {
		t.Fatalf("legacy decrypt = %v, %v", m, err)
	}
	// Without the factor the key has no tables: batches encrypt on the
	// textbook randomizer path and still decrypt.
	checkBatchRoundTrip(t, got.PK, kr.PK)
	if pre := got.PK.pre.Load(); pre == nil || pre.crt != nil {
		t.Fatal("legacy ring built CRT randomizer tables")
	}
}

// TestPaillierHostileFactorRejected feeds blobs whose factor field does not
// actually split the modulus; unmarshaling must fail before the key can
// reach a cipher.
func TestPaillierHostileFactorRejected(t *testing.T) {
	kr, err := NewKeyRing("kBad", 96)
	if err != nil {
		t.Fatal(err)
	}
	bad := []*big.Int{
		big.NewInt(1),                            // trivial divisor
		new(big.Int).Set(kr.PK.N),                // the modulus itself
		new(big.Int).Add(kr.PK.N, big.NewInt(1)), // larger than the modulus
		big.NewInt(7919),                         // prime that does not divide n (w.h.p.)
	}
	for _, p := range bad {
		if new(big.Int).Mod(kr.PK.N, p).Sign() == 0 && p.Cmp(big.NewInt(1)) > 0 && p.Cmp(kr.PK.N) < 0 {
			continue // freak divisor; the blob would be honest
		}
		w := wireRing{ID: "kBad", Master: kr.Master, N: kr.PK.N, Lambda: kr.PK.lambda, Mu: kr.PK.mu, P: p}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
			t.Fatal(err)
		}
		if _, err := UnmarshalKeyRing(buf.Bytes()); err == nil {
			t.Errorf("hostile factor %v accepted", p)
		}
	}
}

// BenchmarkPaillierDecryptCRT / BenchmarkPaillierDecryptTextbook pin the
// speedup the CRT path buys on a production-width modulus.
func benchPaillierDecrypt(b *testing.B, crt bool) {
	pk, err := GeneratePaillier(512)
	if err != nil {
		b.Fatal(err)
	}
	c, err := pk.Encrypt(big.NewInt(123456789))
	if err != nil {
		b.Fatal(err)
	}
	dec := pk
	if !crt {
		dec = textbookCopy(pk)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decrypt(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPaillierDecryptCRT(b *testing.B)      { benchPaillierDecrypt(b, true) }
func BenchmarkPaillierDecryptTextbook(b *testing.B) { benchPaillierDecrypt(b, false) }
