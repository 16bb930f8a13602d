package bdd

import (
	"math/rand"
	"testing"
)

// buildCubes ORs random minterms over vars variables into one function
// until the table holds more than nodes nodes, and returns the function.
func buildCubes(m *Manager, rng *rand.Rand, vars, nodes int) Ref {
	acc := False
	for m.NodeCount() <= nodes {
		cube := True
		for v := 0; v < vars; v++ {
			if rng.Intn(2) == 1 {
				cube = m.And(cube, m.Var(v))
			} else {
				cube = m.And(cube, m.NVar(v))
			}
		}
		acc = m.Or(acc, cube)
	}
	return acc
}

// TestUniqueTableCanonicalAcrossGrowth grows one table past 2^17 nodes, so
// the node storage spans many chunks and the bucket array has been doubled
// and rehashed many times, then checks that every stored node is still
// found: mk of an existing triple returns the node's own ref and inserts
// nothing.
func TestUniqueTableCanonicalAcrossGrowth(t *testing.T) {
	const target = 1<<17 + 1000
	m := NewAnon(24)
	f := buildCubes(m, rand.New(rand.NewSource(3)), 24, target)
	if len(m.t.chunks) < target/chunkSize || len(m.t.buckets) < 1<<17 {
		t.Fatalf("%d chunks and %d buckets for %d nodes: storage did not grow",
			len(m.t.chunks), len(m.t.buckets), m.NodeCount())
	}
	count := m.NodeCount()
	for id := int32(1); id < int32(count); id++ {
		n := *m.t.node(id)
		if got := m.mk(n.level, n.low, n.high); got != Ref(id<<1) {
			t.Fatalf("mk of node %d's triple returned %v, want %v", id, got, Ref(id<<1))
		}
		// The complemented form of the same node normalizes onto it too.
		if got := m.mk(n.level, n.low^1, n.high^1); got != Ref(id<<1)^1 {
			t.Fatalf("mk of node %d's complement returned %v", id, got)
		}
	}
	if m.NodeCount() != count {
		t.Fatalf("re-making existing nodes inserted %d new ones", m.NodeCount()-count)
	}
	// A copy built in a fresh manager with the same operations is the same
	// function, and transferring it back lands on the original ref.
	m2 := NewAnon(24)
	g := buildCubes(m2, rand.New(rand.NewSource(3)), 24, target)
	if back := m2.Transfer(m, g)[0]; back != f {
		t.Fatalf("transferred copy is %v, original %v", back, f)
	}
	if m.NodeCount() != count {
		t.Fatal("transferring an existing function inserted nodes")
	}
}

// TestOpCacheCollisions runs on a four-entry cache, so nearly every probe
// collides with an entry for another triple. Results must match a
// manager with a full-size cache, and an empty slot must never answer.
func TestOpCacheCollisions(t *testing.T) {
	const vars = 10
	m := NewAnon(vars)
	m.setCacheBits(2)
	for _, e := range m.t.cache {
		if e != (cacheEnt{}) {
			t.Fatalf("fresh cache holds %+v", e)
		}
	}
	// The first operation on an empty cache must miss, even though its
	// slot's zero entry has g == h == res == 0.
	if r := m.And(m.Var(0), m.NVar(1)); m.CacheStats().ApplyHits != 0 || m.CacheStats().ApplyMisses == 0 {
		t.Fatalf("first And on an empty cache: %+v", m.CacheStats())
	} else if m.Eval(r, make([]bool, vars)) {
		t.Fatal("x0 ∧ ¬x1 is true on the all-zero assignment")
	}

	big := NewAnon(vars)
	rngA, rngB := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		f := randomFunc(m, rngA, vars, 60)
		g := randomFunc(big, rngB, vars, 60)
		if got := m.Transfer(big, f)[0]; got != g {
			t.Fatalf("trial %d: four-entry cache built a different function", trial)
		}
	}
	if len(m.t.cache) != 4 {
		t.Fatalf("pinned cache grew to %d entries", len(m.t.cache))
	}
	small, full := m.CacheStats(), big.CacheStats()
	if small.ApplyMisses <= full.ApplyMisses {
		t.Fatalf("four-entry cache missed %d times, full cache %d: no collisions evicted anything",
			small.ApplyMisses, full.ApplyMisses)
	}
}

// TestSetMaxCacheCapsGrowth checks the cache follows the node count up to
// its cap and no further.
func TestSetMaxCacheCapsGrowth(t *testing.T) {
	m := NewAnon(20)
	m.SetMaxCache(1<<14 + 5)
	buildCubes(m, rand.New(rand.NewSource(4)), 20, 1<<16)
	if got := len(m.t.cache); got != 1<<14 {
		t.Fatalf("cache has %d entries after %d nodes, want the 2^14 cap", got, m.NodeCount())
	}
	m.SetMaxCache(1 << 13)
	if got := len(m.t.cache); got != 1<<13 {
		t.Fatalf("lowering the cap left %d entries", got)
	}
	m.SetMaxCache(0)
	if got := len(m.t.cache); got != 1<<minCacheBits {
		t.Fatalf("a zero cap left %d entries, want the 2^%d floor", got, minCacheBits)
	}
}

// cacheEmpty reports whether every cache slot is empty.
func cacheEmpty(m *Manager) bool {
	for _, e := range m.t.cache {
		if e.f != 0 {
			return false
		}
	}
	return true
}

// TestCompactionClearsCacheAndBumpsEpoch checks both in-place adoptions:
// GC and a sifting ReduceUnder clear the cache array in place (same size,
// no entry left naming a replaced node id) and bump the epoch.
func TestCompactionClearsCacheAndBumpsEpoch(t *testing.T) {
	const k = 5
	names := make([]string, 0, 2*k)
	for i := 0; i < k; i++ {
		names = append(names, "a"+string(rune('0'+i)))
	}
	for i := 0; i < k; i++ {
		names = append(names, "b"+string(rune('0'+i)))
	}
	m := New(names...)
	f := False
	for i := 0; i < k; i++ {
		f = m.Or(f, m.And(m.Var(i), m.Var(k+i)))
	}
	for i := 0; i+1 < 2*k; i++ {
		m.Xor(m.Var(i), m.Var(i+1)) // garbage
	}
	for _, step := range []struct {
		name string
		run  func([]Ref) ([]Ref, GCResult)
	}{
		{"GC", m.GC},
		{"ReduceUnder", func(r []Ref) ([]Ref, GCResult) { return m.ReduceUnder(r, 1, 4) }},
	} {
		if cacheEmpty(m) {
			t.Fatalf("%s: cache empty before the collection", step.name)
		}
		size, epoch := len(m.t.cache), m.TableEpoch()
		roots, res := step.run([]Ref{f})
		f = roots[0]
		if m.TableEpoch() <= epoch {
			t.Fatalf("%s: epoch stayed at %d", step.name, epoch)
		}
		if len(m.t.cache) != size || !cacheEmpty(m) {
			t.Fatalf("%s: cache has %d entries (was %d), empty=%v", step.name, len(m.t.cache), size, cacheEmpty(m))
		}
		if step.name == "ReduceUnder" && !res.Sifted {
			t.Fatal("watermark 1 must force a sift")
		}
		// Rebuilding the root by name lands on the adopted ref.
		g := False
		for i := 0; i < k; i++ {
			g = m.Or(g, m.And(m.VarNamed(names[i]), m.VarNamed(names[k+i])))
		}
		if g != f {
			t.Fatalf("%s: rebuilt %v, collection returned %v", step.name, g, f)
		}
	}
	if got := m.Size(f); got != 2*k+1 {
		t.Fatalf("sifted size %d, want optimum %d", got, 2*k+1)
	}
}
