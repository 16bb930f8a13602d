// The node store behind a Manager.
//
// A table owns the unique table, the node storage and the operation cache
// of one BDD universe, and is used by one goroutine at a time: parallel
// campaigns give every worker a manager of its own. Nodes live in
// fixed-size chunks held in a plain slice, so growing the store never
// copies the nodes already built, and each node carries its unique-table
// chain link inline, so a probe touches one node per step. The operation
// (ITE) cache is a direct-mapped array of 16-byte entries.
package bdd

import "fmt"

const (
	chunkBits = 12
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1

	// maxNodes bounds the node count so a node id and its complement bit
	// always fit in an int32 Ref.
	maxNodes = 1 << 30
)

// node is one BDD node. The then (high) edge is always a regular
// (non-complemented) ref — the canonical complement-edge restriction —
// while the else (low) edge may carry the complement bit. next links the
// node into its unique-table hash chain (0 ends the chain: the terminal,
// id 0, is never hashed). Nodes are immutable once inserted, apart from
// next, which a bucket-array resize rewrites.
type node struct {
	level int32
	low   Ref
	high  Ref
	next  int32
}

type nodeChunk [chunkSize]node

// table is the store of one BDD universe.
type table struct {
	names   []string
	nameIdx map[string]int
	vars    []Ref // vars[i]: regular ref of the (x_i ? false : true) node, i.e. ¬x_i

	chunks  []*nodeChunk
	count   int32   // nodes stored, the terminal included
	buckets []int32 // heads of hash chains, node ids, 0 empty
	mask    uint32

	cache     []cacheEnt
	cacheMask uint32
	maxCache  int // the cache grows with the node count up to this many entries

	// epoch counts in-place adoptions (GC/sift). Results and caches that
	// hold refs compare against it to detect that node ids were reassigned.
	epoch uint64
}

func newTable(names []string, nameIdx map[string]int) *table {
	t := &table{
		names:    names,
		nameIdx:  nameIdx,
		buckets:  make([]int32, 64),
		mask:     63,
		maxCache: 1 << maxCacheBits,
	}
	t.setCache(1 << minCacheBits)
	// The single terminal node, id 0. It represents the constant false
	// function (True is its complement edge) and is not hashed into any
	// bucket.
	t.chunks = []*nodeChunk{new(nodeChunk)}
	t.chunks[0][0] = node{level: terminalLevel}
	t.count = 1
	t.vars = make([]Ref, len(names))
	for i := range names {
		t.vars[i] = t.mkRaw(0, int32(i), True, False)
	}
	return t
}

// node returns the payload of a node id (Ref without its complement bit).
func (t *table) node(id int32) *node {
	return &t.chunks[id>>chunkBits][id&chunkMask]
}

func nodeHash(level int32, low, high Ref) uint32 {
	h := uint32(level)*0x9e3779b1 ^ uint32(low)*0x85ebca6b ^ uint32(high)*0xc2b2ae35
	h ^= h >> 15
	return h
}

// mkRaw finds or inserts the node (level, low, high) — already normalized
// to a regular high edge — and returns its regular Ref. limit > 0 arms the
// node watermark: the insert panics with ErrNodeLimit when the table has
// already reached it (checked after the lookup, so existing nodes keep
// resolving under a blown watermark and the panic fires only with the
// store consistent).
func (t *table) mkRaw(limit int, level int32, low, high Ref) Ref {
	slot := nodeHash(level, low, high) & t.mask
	for id := t.buckets[slot]; id != 0; {
		n := t.node(id)
		if n.level == level && n.low == low && n.high == high {
			return Ref(id << 1)
		}
		id = n.next
	}
	if limit > 0 && int(t.count) >= limit {
		panic(ErrNodeLimit)
	}
	id := t.count
	if id >= maxNodes {
		panic(fmt.Sprintf("bdd: node table overflow (%d nodes)", id))
	}
	if id&chunkMask == 0 {
		t.chunks = append(t.chunks, new(nodeChunk))
	}
	*t.node(id) = node{level: level, low: low, high: high, next: t.buckets[slot]}
	t.buckets[slot] = id
	t.count = id + 1
	if int(t.count) > len(t.buckets) {
		t.growBuckets()
	}
	if int(t.count) > len(t.cache) && len(t.cache) < t.maxCache {
		// Entries in the replaced cache are lost, which is harmless: the
		// cache is only an accelerator.
		t.setCache(2 * len(t.cache))
	}
	return Ref(id << 1)
}

// growBuckets doubles the bucket array and rehashes every chain. The
// rehash walks the nodes, not the old chains, so the old array is dropped
// before the new one is allocated: a collection that the allocation
// triggers then does not count both arrays as live.
func (t *table) growBuckets() {
	size := 2 * len(t.buckets)
	t.buckets = nil
	nb := make([]int32, size)
	t.mask = uint32(len(nb) - 1)
	for id := int32(1); id < t.count; id++ {
		n := t.node(id)
		slot := nodeHash(n.level, n.low, n.high) & t.mask
		n.next = nb[slot]
		nb[slot] = id
	}
	t.buckets = nb
}

// setCache replaces the operation cache with an empty one of n entries (a
// power of two). The old cache is dropped first, as in growBuckets.
func (t *table) setCache(n int) {
	t.cache = nil
	t.cache = make([]cacheEnt, n)
	t.cacheMask = uint32(n - 1)
}

// adoptFrom replaces the table's nodes, unique table and variable order
// in place with src's. The operation cache keeps its size and is cleared
// (its entries name ids of the replaced store), and the epoch is bumped.
// src must not be used afterwards.
func (t *table) adoptFrom(src *table) {
	t.names, t.nameIdx, t.vars = src.names, src.nameIdx, src.vars
	t.chunks, t.count = src.chunks, src.count
	t.buckets, t.mask = src.buckets, src.mask
	clear(t.cache)
	t.epoch++
}

// cacheEnt is one operation-cache entry: the normalized ITE triple and
// its result. The first operand of a cached triple is never a terminal,
// so f == 0 marks an empty slot, which therefore never answers a lookup.
type cacheEnt struct {
	f, g, h, res Ref
}

func iteHash(f, g, h Ref) uint32 {
	x := uint32(f)*0x9e3779b1 ^ uint32(g)*0x85ebca6b ^ uint32(h)*0xc2b2ae35
	x ^= x >> 14
	return x
}
