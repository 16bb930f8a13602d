package bdd

import (
	"math"
	"math/big"
)

// SatCount returns the exact number of satisfying assignments of f over all
// variables declared in the manager.
//
// Counts are cached per regular (uncomplemented) ref, normalized to the
// node's own level; a complement edge is resolved arithmetically as
// 2^(n-level) − count, so both polarities of a function are served by one
// cached value. Cached *big.Int values are immutable and may be aliased
// across managers (Transfer carries them).
func (m *Manager) SatCount(f Ref) *big.Int {
	n := int32(len(m.t.names))
	counts := m.satC
	// cntAt(r) counts assignments over the variables at levels >= level(r)
	// (capped at n); cnt(r, from) widens that to levels >= from.
	var cntAt func(Ref) *big.Int
	cnt := func(r Ref, from int32) *big.Int {
		lv := m.levelOf(r)
		if lv > n {
			lv = n
		}
		return new(big.Int).Lsh(cntAt(r), uint(lv-from))
	}
	cntAt = func(r Ref) *big.Int {
		if r == False {
			return big.NewInt(0)
		}
		if r == True {
			return big.NewInt(1)
		}
		if r&1 != 0 {
			// ¬x over the vars from level(r): full space minus x's count.
			reg := r ^ 1
			full := new(big.Int).Lsh(big.NewInt(1), uint(n-m.levelOf(r)))
			return full.Sub(full, cntAt(reg))
		}
		if c, ok := counts[r]; ok {
			return c
		}
		nd := m.nodeOf(r)
		c := cnt(nd.low, nd.level+1)
		c.Add(c, cnt(nd.high, nd.level+1))
		counts[r] = c
		return c
	}
	top := m.levelOf(f)
	if top > n {
		top = n
	}
	return new(big.Int).Lsh(cntAt(f), uint(top))
}

// SatFrac returns the fraction of the 2^n input space satisfying f:
// exactly the paper's "syndrome" when f is the good function of a line, and
// the exact detection probability when f is a complete test set.
func (m *Manager) SatFrac(f Ref) float64 {
	c := m.SatCount(f)
	num := new(big.Float).SetInt(c)
	den := new(big.Float).SetMantExp(big.NewFloat(1), len(m.t.names))
	frac, _ := new(big.Float).Quo(num, den).Float64()
	if math.IsNaN(frac) {
		return 0
	}
	return frac
}

// AnySat returns one satisfying assignment of f as a slice with one entry
// per variable: 0, 1, or -1 for don't-care. Returns nil when f is False.
// The walk prefers the then branch, so the result depends only on the
// function, not on node ids — shared and serial runs pick the same
// witness.
func (m *Manager) AnySat(f Ref) []int8 {
	if f == False {
		return nil
	}
	a := make([]int8, len(m.t.names))
	for i := range a {
		a[i] = -1
	}
	for !IsConst(f) {
		n := m.nodeOf(f)
		c := f & 1
		if hi := n.high ^ c; hi != False {
			a[n.level] = 1
			f = hi
		} else {
			a[n.level] = 0
			f = n.low ^ c
		}
	}
	return a
}

// AllSat invokes fn for each cube (partial assignment; -1 entries are
// don't-care) in a disjoint cube cover of f, stopping early if fn returns
// false. The enumeration is depth-first over the BDD, so the number of
// cubes equals the number of root-to-True paths.
func (m *Manager) AllSat(f Ref, fn func(cube []int8) bool) {
	cube := make([]int8, len(m.t.names))
	for i := range cube {
		cube[i] = -1
	}
	var rec func(Ref) bool
	rec = func(r Ref) bool {
		if r == False {
			return true
		}
		if r == True {
			return fn(cube)
		}
		n := m.nodeOf(r)
		c := r & 1
		lv := n.level
		cube[lv] = 0
		if !rec(n.low ^ c) {
			return false
		}
		cube[lv] = 1
		if !rec(n.high ^ c) {
			return false
		}
		cube[lv] = -1
		return true
	}
	rec(f)
}

// CountMinterms64 returns SatCount rounded to the nearest float64. The
// value is exact only while the count fits in 53 bits of mantissa —
// circuits with more than 53 inputs (several ISCAS-85 members) routinely
// exceed that, and their counts round to the nearest representable
// float64 (relative error ≤ 2⁻⁵³). Callers needing exact wide counts must
// use SatCount; callers deriving fractions should prefer SatFrac, which
// divides in extended precision before rounding once.
func (m *Manager) CountMinterms64(f Ref) float64 {
	fl, _ := new(big.Float).SetInt(m.SatCount(f)).Float64()
	return fl
}
