package crypto

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"math/bits"
)

// Paillier encryption spends almost all of its time computing the
// randomizer r^n mod n² (with g = n+1, the message part g^m costs one
// multiplication). Two precomputations cut that cost:
//
//   - Fixed-base windowed exponentiation, split by CRT. At first batch use
//     (or an explicit Precompute call) the key picks a random unit h,
//     computes hn = h^n mod n², and tabulates hn^(j·2^(i·w)) for every
//     window digit — once mod p² and once mod q², in Montgomery form on
//     machine words. A randomizer is hn^ρ mod n² for a fresh random ρ: ρ is
//     reduced mod p−1 and mod q−1 (the order of hn in each factor divides
//     them), each half takes one table multiplication per window digit and
//     no squaring, and Garner's formula recombines the halves mod n². The
//     result is bit-identical to hn^ρ mod n² computed directly. Any such
//     value is a valid Paillier randomizer ((h^ρ)^n), so ciphertexts
//     decrypt exactly as before; only the (still computationally hidden)
//     randomizer distribution differs from the textbook one, which the
//     decrypt-equivalence oracle accepts.
//
//   - A randomizer pool. Randomizers are message-independent, so they can
//     be precomputed ahead of the values they will encrypt
//     (PrecomputeRandomizers, which the engine runs in the background on
//     plan-cache hits) and popped in O(1) at encryption time.
//
// The tables need the factorization, which every full key ring carries
// (generated keys, and unmarshaled rings whose wire form has the factor).
// A key without it — a public-only copy or a legacy wire blob — keeps the
// textbook full-width exponentiation for every randomizer; only its pool
// works as above. Per-value Encrypt keeps the textbook path until a
// precomputation is requested; EncryptBatch precomputes automatically for
// batches worth the table construction.
//
// The Montgomery kernel is variable-time (its final subtraction and the
// skipped zero digits depend on the operands), as the math/big code it
// replaces was: randomizer timing can leak information about ρ to a
// co-located observer, which this engine's threat model does not cover.

// fixedBaseWindow is the window width in bits of the precomputed tables: a
// digits×(2^w-1) table turns an e-bit exponentiation into ceil(e/w)
// multiplications.
const fixedBaseWindow = 5

// paillierPoolCap bounds the randomizer pool of one key.
const paillierPoolCap = 4096

// paillierBatchPrecompute is the batch size from which EncryptBatch builds
// the fixed-base tables on first use.
const paillierBatchPrecompute = 16

// montMul sets z = x·y·R⁻¹ mod m, R = 2^(W·k) for W-bit words and k =
// len(m), by word-level Montgomery multiplication (CIOS, with the multiply
// and reduce passes of each outer step fused into one loop). m must be
// odd, mInv = −m⁻¹ mod 2^W, x and y below m, and t a caller-owned scratch
// of at least k words; z may alias x or y. It makes no allocation.
func montMul(z, x, y, m []big.Word, mInv big.Word, t []big.Word) {
	k := len(m)
	x, y, z, t = x[:k], y[:k], z[:k], t[:k]
	clear(t)
	var top uint // word k of the running sum t (0 or 1)
	for _, yw := range y {
		// t = (t + x·yi + u·m) / 2^W, u chosen so the low word cancels;
		// c1 and c2 carry the two products.
		yi := uint(yw)
		hi1, lo1 := bits.Mul(uint(x[0]), yi)
		lo1, cc := bits.Add(lo1, uint(t[0]), 0)
		hi1 += cc
		u := lo1 * uint(mInv)
		hi2, lo2 := bits.Mul(u, uint(m[0]))
		_, cc = bits.Add(lo2, lo1, 0)
		c1, c2 := hi1, hi2+cc
		for j := 1; j < k; j++ {
			hi1, lo1 := bits.Mul(uint(x[j]), yi)
			lo1, cc := bits.Add(lo1, uint(t[j]), 0)
			hi1 += cc
			lo1, cc = bits.Add(lo1, c1, 0)
			c1 = hi1 + cc
			hi2, lo2 := bits.Mul(u, uint(m[j]))
			lo2, cc = bits.Add(lo2, lo1, 0)
			hi2 += cc
			lo2, cc = bits.Add(lo2, c2, 0)
			t[j-1], c2 = big.Word(lo2), hi2+cc
		}
		s, cc1 := bits.Add(top, c1, 0)
		s, cc2 := bits.Add(s, c2, 0)
		t[k-1], top = big.Word(s), cc1+cc2
	}
	// t < 2m: subtract m once unless t is already reduced.
	var b uint
	for j := range z {
		var d uint
		d, b = bits.Sub(uint(t[j]), uint(m[j]), b)
		z[j] = big.Word(d)
	}
	if top == 0 && b != 0 {
		copy(z, t)
	}
}

// montInv returns −m0⁻¹ mod 2^W for an odd word m0 (Newton iteration:
// each step doubles the number of correct low bits, starting from 3).
func montInv(m0 big.Word) big.Word {
	inv := m0
	for i := 0; i < 5; i++ {
		inv *= 2 - m0*inv
	}
	return -inv
}

// montTable is a windowed fixed-base exponentiation table modulo an odd m:
// entry (i, j) holds base^(j·2^(i·w))·R mod m (Montgomery form), so
// base^e is the Montgomery product of one entry per non-zero window digit
// of e.
type montTable struct {
	m      []big.Word // modulus limbs, little-endian
	mInv   big.Word   // −m⁻¹ mod 2^W
	digits int
	table  []big.Word // digits × (2^w−1) entries of len(m) words each
}

// newMontTable tabulates base^(j·2^(i·w)) mod m for exponents below
// 2^(digits·w); m must be odd and base below m.
func newMontTable(base, m *big.Int, digits int) *montTable {
	k := len(m.Bits())
	size := 1<<fixedBaseWindow - 1
	tb := &montTable{
		m:      m.Bits(),
		mInv:   montInv(m.Bits()[0]),
		digits: digits,
		table:  make([]big.Word, digits*size*k),
	}
	t := make([]big.Word, k)
	// cur = base^(2^(i·w)) in Montgomery form, starting from base·R mod m.
	cur := make([]big.Word, k)
	copy(cur, new(big.Int).Mod(new(big.Int).Lsh(base, uint(k*bits.UintSize)), m).Bits())
	for i := 0; i < digits; i++ {
		row := tb.table[i*size*k : (i+1)*size*k]
		copy(row[:k], cur)
		for j := 1; j < size; j++ {
			montMul(row[j*k:(j+1)*k], row[(j-1)*k:j*k], cur, tb.m, tb.mInv, t)
		}
		montMul(cur, row[(size-1)*k:], cur, tb.m, tb.mInv, t)
	}
	return tb
}

// exp sets z (len(m) words) to base^e mod m in ordinary form, for e below
// 2^(digits·w) given as its words. acc and t are caller-owned scratch of
// len(m) words each.
func (tb *montTable) exp(z, e, acc, t []big.Word) {
	k := len(tb.m)
	size := 1<<fixedBaseWindow - 1
	started := false
	for i := 0; i < tb.digits; i++ {
		d := windowDigit(e, i*fixedBaseWindow)
		if d == 0 {
			continue
		}
		entry := tb.table[(i*size+d-1)*k : (i*size+d)*k]
		if started {
			montMul(acc, acc, entry, tb.m, tb.mInv, t)
		} else {
			copy(acc, entry)
			started = true
		}
	}
	clear(z)
	z[0] = 1
	if started {
		montMul(z, acc, z, tb.m, tb.mInv, t) // leave Montgomery form: acc·1·R⁻¹
	}
}

// windowDigit reads the fixedBaseWindow-bit digit of e starting at bit
// pos (bits past the end of e read as zero).
func windowDigit(e []big.Word, pos int) int {
	i, off := pos/bits.UintSize, uint(pos%bits.UintSize)
	if i >= len(e) {
		return 0
	}
	d := uint(e[i]) >> off
	if off+fixedBaseWindow > bits.UintSize && i+1 < len(e) {
		d |= uint(e[i+1]) << (bits.UintSize - off)
	}
	return int(d & (1<<fixedBaseWindow - 1))
}

// crtRandomizer computes hn^ρ mod n² from two half-width tables, hn mod l²
// and hn mod s², where l and s are the key's prime factors ordered so that
// l² > s² (Garner's formula then needs no reduction of the s-half mod l²).
type crtRandomizer struct {
	l, s       *montTable // moduli l² and s²
	lOrd, sOrd *big.Int   // l−1 and s−1: the exponents reduce modulo them
	s2InvR     []big.Word // (s²)⁻¹·R mod l², so montMul by it multiplies by (s²)⁻¹
	expBits    int        // bit length of ρ (full-width window digits × w)
}

// newCRTRandomizer builds the tables for base hn mod n², n = p·q. It
// returns nil when the factors do not admit Montgomery tables (an even or
// non-coprime factor, which only a malformed wire key can carry).
func newCRTRandomizer(p, q, hn *big.Int, nBits int) *crtRandomizer {
	l, s := p, q
	l2, s2 := new(big.Int).Mul(l, l), new(big.Int).Mul(s, s)
	if l2.Cmp(s2) < 0 {
		l, s, l2, s2 = s, l, s2, l2
	}
	if l.Bit(0) == 0 || s.Bit(0) == 0 {
		return nil
	}
	s2Inv := new(big.Int).ModInverse(s2, l2)
	if s2Inv == nil {
		return nil
	}
	one := big.NewInt(1)
	c := &crtRandomizer{
		lOrd:    new(big.Int).Sub(l, one),
		sOrd:    new(big.Int).Sub(s, one),
		expBits: roundUpWindow(nBits),
	}
	c.l = newMontTable(new(big.Int).Mod(hn, l2), l2, roundUpWindow(c.lOrd.BitLen())/fixedBaseWindow)
	c.s = newMontTable(new(big.Int).Mod(hn, s2), s2, roundUpWindow(c.sOrd.BitLen())/fixedBaseWindow)
	kl := len(c.l.m)
	c.s2InvR = make([]big.Word, kl)
	copy(c.s2InvR, s2Inv.Lsh(s2Inv, uint(kl*bits.UintSize)).Mod(s2Inv, l2).Bits())
	return c
}

// roundUpWindow rounds a bit count up to whole window digits (at least
// one).
func roundUpWindow(nbits int) int {
	d := (nbits + fixedBaseWindow - 1) / fixedBaseWindow
	return max(d, 1) * fixedBaseWindow
}

// encScratch is one encrypting call's working memory: the kernel's limb
// buffers and the big.Int temporaries, reused across the values of a batch
// so the table multiplications allocate nothing.
type encScratch struct {
	rnd              []byte     // ρ's random bytes
	rho, quo, eL, eS big.Int    // ρ, a discarded quotient, ρ mod (l−1), ρ mod (s−1)
	xl, xs, acc, t   []big.Word // half results (xs zero-extended), accumulator, montMul scratch
	product, msg     big.Int    // message-term temporaries: m·rn and its residue mod n
}

// ensure sizes the limb buffers for c.
func (s *encScratch) ensure(c *crtRandomizer) {
	if s.t != nil {
		return
	}
	kl := len(c.l.m)
	s.rnd = make([]byte, (c.expBits+7)/8)
	s.xl, s.xs = make([]big.Word, kl), make([]big.Word, kl)
	s.acc, s.t = make([]big.Word, kl), make([]big.Word, kl)
}

// randomizer draws ρ uniformly below 2^expBits and returns hn^ρ mod n².
func (c *crtRandomizer) randomizer(s *encScratch) (*big.Int, error) {
	s.ensure(c)
	if _, err := rand.Read(s.rnd); err != nil {
		return nil, err
	}
	if r := c.expBits % 8; r != 0 {
		s.rnd[0] &= 1<<r - 1
	}
	s.rho.SetBytes(s.rnd)
	return c.exp(&s.rho, s), nil
}

// exp returns hn^ρ mod n² for 0 ≤ ρ < 2^expBits.
func (c *crtRandomizer) exp(rho *big.Int, s *encScratch) *big.Int {
	s.ensure(c)
	s.quo.QuoRem(rho, c.lOrd, &s.eL)
	s.quo.QuoRem(rho, c.sOrd, &s.eS)
	ks := len(c.s.m)
	c.l.exp(s.xl, s.eL.Bits(), s.acc, s.t)
	c.s.exp(s.xs[:ks], s.eS.Bits(), s.acc[:ks], s.t[:ks]) // words past ks stay zero
	// Garner: x = xs + s²·((xl − xs)·(s²)⁻¹ mod l²). xs < s² < l², so
	// xl − xs needs at most one correction by l² (the wrap of the word
	// subtraction is that correction modulo 2^(W·kl)).
	var b uint
	for j := range s.xl {
		var d uint
		d, b = bits.Sub(uint(s.xl[j]), uint(s.xs[j]), b)
		s.acc[j] = big.Word(d)
	}
	if b != 0 {
		var cy uint
		for j := range s.acc {
			var d uint
			d, cy = bits.Add(uint(s.acc[j]), uint(c.l.m[j]), cy)
			s.acc[j] = big.Word(d)
		}
	}
	h := s.xl // reuse: xl is consumed
	montMul(h, s.acc, c.s2InvR, c.l.m, c.l.mInv, s.t)
	// z = xs + s²·h, schoolbook; z < s²·l² = n² fits in ks+kl words.
	z := make([]big.Word, ks+len(h))
	copy(z, s.xs[:ks])
	for i, hi := range h {
		var cy uint
		for j, sj := range c.s.m {
			ph, pl := bits.Mul(uint(sj), uint(hi))
			var cc uint
			pl, cc = bits.Add(pl, uint(z[i+j]), 0)
			ph += cc
			pl, cc = bits.Add(pl, cy, 0)
			z[i+j], cy = big.Word(pl), ph+cc
		}
		z[i+ks] = big.Word(cy)
	}
	return new(big.Int).SetBits(z)
}

// paillierPrecomp is the per-key precomputation state. Both fields are
// immutable once the struct is published through the key's atomic pointer
// (the channel itself is the only synchronization the pool needs).
type paillierPrecomp struct {
	crt  *crtRandomizer // nil for keys without a usable factorization
	pool chan *big.Int
}

// Precompute builds the fixed-base randomizer tables of the key
// (idempotent, safe for concurrent use). Encrypt and EncryptBatch then
// derive randomizers from the tables instead of a fresh full-width
// exponentiation; keys without the factorization only gain the pool.
func (p *Paillier) Precompute() error {
	if p.pre.Load() != nil {
		return nil
	}
	p.preMu.Lock()
	defer p.preMu.Unlock()
	if p.pre.Load() != nil {
		return nil
	}
	pre := &paillierPrecomp{pool: make(chan *big.Int, paillierPoolCap)}
	if p.p != nil {
		// h uniform unit of Z_n*; hn = h^n mod n² generates the randomizer
		// subgroup the textbook scheme samples from.
		h, err := p.randomUnit()
		if err != nil {
			return err
		}
		hn := new(big.Int).Exp(h, p.N, p.N2)
		pre.crt = newCRTRandomizer(p.p, p.q, hn, p.N.BitLen())
	}
	p.pre.Store(pre)
	return nil
}

// Precomputed reports whether the precomputation state has been built.
func (p *Paillier) Precomputed() bool { return p.pre.Load() != nil }

// randomUnit draws a uniform unit of Z_n*.
func (p *Paillier) randomUnit() (*big.Int, error) {
	one := big.NewInt(1)
	for {
		r, err := rand.Int(rand.Reader, p.N)
		if err != nil {
			return nil, err
		}
		if r.Sign() > 0 && new(big.Int).GCD(nil, nil, r, p.N).Cmp(one) == 0 {
			return r, nil
		}
	}
}

// newRandomizer computes one fresh randomizer: from the CRT tables when
// the key has them, else textbook r^n mod n² for a uniform unit r.
func (p *Paillier) newRandomizer(pre *paillierPrecomp, s *encScratch) (*big.Int, error) {
	if pre != nil && pre.crt != nil {
		return pre.crt.randomizer(s)
	}
	r, err := p.randomUnit()
	if err != nil {
		return nil, err
	}
	return r.Exp(r, p.N, p.N2), nil
}

// PrecomputeRandomizers fills the key's randomizer pool with count
// precomputed values (building the fixed-base tables first if needed), up
// to the pool capacity. Encryptions pop pooled randomizers in O(1) and fall
// back to the tables when the pool runs dry.
func (p *Paillier) PrecomputeRandomizers(count int) error {
	if err := p.Precompute(); err != nil {
		return err
	}
	pre := p.pre.Load()
	var s encScratch
	for i := 0; i < count; i++ {
		rn, err := p.newRandomizer(pre, &s)
		if err != nil {
			return err
		}
		select {
		case pre.pool <- rn:
		default:
			return nil // pool full
		}
	}
	return nil
}

// randomizer returns r^n mod n² for a fresh randomizer r: pooled if
// available, else computed by newRandomizer.
func (p *Paillier) randomizer(s *encScratch) (*big.Int, error) {
	pre := p.pre.Load()
	if pre != nil {
		select {
		case rn := <-pre.pool:
			cryptoStats.poolHits.Add(1)
			return rn, nil
		default:
		}
	}
	cryptoStats.poolMisses.Add(1)
	return p.newRandomizer(pre, s)
}

// EncryptBatch encrypts a column of signed integer messages, amortizing the
// randomizer cost: it builds the fixed-base tables once for batches of at
// least paillierBatchPrecompute values and consumes pooled randomizers
// first. Ciphertexts are decrypt-identical to per-value Encrypt results.
func (p *Paillier) EncryptBatch(ms []*big.Int) ([]*big.Int, error) {
	if len(ms) == 0 {
		return nil, nil
	}
	cryptoStats.encryptBatches.Add(1)
	for _, m := range ms {
		if err := p.checkMessage(m); err != nil {
			return nil, err
		}
	}
	if len(ms) >= paillierBatchPrecompute {
		if err := p.Precompute(); err != nil {
			return nil, err
		}
	}
	out := make([]*big.Int, len(ms))
	var s encScratch
	for i, m := range ms {
		rn, err := p.randomizer(&s)
		if err != nil {
			return nil, err
		}
		out[i] = p.mulGm(rn, m, &s)
	}
	cryptoStats.pheEncrypts.Add(uint64(len(ms)))
	return out, nil
}

// checkMessage rejects messages too large for unambiguous signed decoding.
func (p *Paillier) checkMessage(m *big.Int) error {
	if m.CmpAbs(p.half) >= 0 {
		return fmt.Errorf("crypto: paillier: message magnitude exceeds n/2")
	}
	return nil
}

// mulGm returns rn·g^m mod n² for rn < n² and a signed message m. With
// g = n+1, (1 + m·n)·rn ≡ rn + n·((m·rn) mod n) (mod n²): the only
// reduction is mod n, and the sum is below 2n², so one subtraction
// finishes it.
func (p *Paillier) mulGm(rn, m *big.Int, s *encScratch) *big.Int {
	s.product.Mul(m, rn)
	s.quo.QuoRem(&s.product, p.N, &s.msg)
	if s.msg.Sign() < 0 {
		s.msg.Add(&s.msg, p.N)
	}
	c := new(big.Int).Mul(&s.msg, p.N)
	c.Add(c, rn)
	if c.Cmp(p.N2) >= 0 {
		c.Sub(c, p.N2)
	}
	return c
}

// AddTo homomorphically accumulates a ciphertext into acc in place
// (Dec(acc) gains m), avoiding the per-addition allocation of Add on the
// aggregation hot path. acc must be owned by the caller.
func (p *Paillier) AddTo(acc, c *big.Int) *big.Int {
	acc.Mul(acc, c)
	return acc.Mod(acc, p.N2)
}
