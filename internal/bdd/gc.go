// In-place generational garbage collection and the memory-pressure ladder
// primitive built on it.
//
// Rebuild already implements generational GC by copying live roots into a
// fresh manager, but it hands back a *new* Manager — callers must rebind
// every reference they hold. GC performs the same live-root copy and then
// adopts the fresh nodes into the receiver's table in place, so the Manager
// identity (and its armed budget, logger, cumulative statistics and
// operation-cache array, cleared) survives collection. Every other ref into
// the table is invalidated, which the bumped table epoch lets holders
// detect. ReduceUnder stacks the auto-sift hook on top: when the live set
// alone still exceeds the watermark, the blowup is order-induced rather
// than garbage-induced, and a capped number of reordering passes is spent
// trying to shrink it.
package bdd

// GCResult reports what one collection accomplished.
type GCResult struct {
	// Before is the node count (live + garbage) when collection started.
	Before int
	// AfterGC is the live node count right after the generational copy.
	AfterGC int
	// After is the final node count: equal to AfterGC unless the auto-sift
	// rung fired and found a smaller variable order.
	After int
	// Sifted reports that reordering ran (ReduceUnder only). When true the
	// manager's variable order may have changed: callers holding
	// order-dependent state (variable→meaning maps) must recompute it.
	Sifted bool
}

// Reclaimed is the number of dead nodes the generational copy dropped.
func (r GCResult) Reclaimed() int { return r.Before - r.AfterGC }

// adopt replaces the table's contents with dst's, merging dst's cache
// statistics into the receiver's cumulative counters and taking over
// dst's sat-count cache (its refs are the adopted table's refs). The armed
// budget, node watermark and logger are the receiver's own and survive
// unchanged. dst must not be used afterwards.
func (m *Manager) adopt(dst *Manager) {
	m.stats.Add(dst.stats)
	m.t.adoptFrom(&dst.t)
	m.satC = dst.satC
}

// GC collects the manager in place: the functions rooted at roots are
// copied into fresh tables (dropping every node not reachable from them —
// dead apply/ite garbage from completed or aborted computations) and the
// manager adopts the result. The returned refs replace roots; all other
// refs into the table are invalidated. Unlike Rebuild, the manager
// identity, cumulative cache statistics, armed budget and node watermark
// survive, so a caller can collect mid-computation without rebinding its
// manager handle. The copy runs on the destination, which has no
// watermark armed, so GC itself can never raise ErrNodeLimit.
func (m *Manager) GC(roots []Ref) ([]Ref, GCResult) {
	out, res := m.gc(roots)
	if m.gcHook != nil {
		m.gcHook(res)
	}
	return out, res
}

// gc is the collection body shared by GC and ReduceUnder; it does not
// fire the GC hook, so each public entry point reports exactly one
// (final) result per call.
func (m *Manager) gc(roots []Ref) ([]Ref, GCResult) {
	res := GCResult{Before: m.NodeCount()}
	dst := New(m.t.names...)
	// adopt keeps the receiver's cache, so the copy's own stays minimal.
	dst.t.maxCache = len(dst.t.cache)
	out := m.Transfer(dst, roots...)
	m.adopt(dst)
	res.AfterGC = m.NodeCount()
	res.After = res.AfterGC
	return out, res
}

// ReduceUnder is the manager-level memory-pressure ladder: a generational
// GC of the live roots, then — only when the live set alone still exceeds
// the watermark, i.e. the blowup is order- rather than garbage-induced —
// up to siftPasses reordering passes (full Rudell sifting for small
// variable counts, window-2 permutation above that) trying to pull the
// live set back under. watermark <= 0 or siftPasses <= 0 disables the
// sift rung. When the result reports Sifted, the variable order may have
// changed and order-dependent caller state must be recomputed; the
// sat-count cache is dropped in that case (counts are order-normalized
// per node and rebuilt lazily).
func (m *Manager) ReduceUnder(roots []Ref, watermark, siftPasses int) ([]Ref, GCResult) {
	out, res := m.gc(roots)
	if watermark <= 0 || siftPasses <= 0 || res.AfterGC <= watermark {
		if m.gcHook != nil {
			m.gcHook(res)
		}
		return out, res
	}
	// Full sifting tries every variable at every position — affordable for
	// the variable counts where it shines; window permutation scales to
	// wide circuits at the cost of a weaker search.
	const fullSiftVars = 16
	var (
		next     *Manager
		newRoots []Ref
	)
	if m.NumVars() <= fullSiftVars {
		next, newRoots, _ = m.Sift(out, siftPasses)
	} else {
		next, newRoots, _ = m.WindowReorder(out, 2, siftPasses)
	}
	m.adopt(next)
	res.Sifted = true
	res.After = m.NodeCount()
	if m.gcHook != nil {
		m.gcHook(res)
	}
	return newRoots, res
}
