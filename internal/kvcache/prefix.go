package kvcache

import (
	"fmt"
	"sync"
)

// PageAlignmentError reports a prefix-cache page granularity that is not
// a positive multiple of the quantization partition Π. Misaligned pages
// would let quantized partitions straddle page (and therefore trie-node)
// boundaries, breaking the invariant that a cached page can be restored
// without re-quantizing its neighbours.
type PageAlignmentError struct {
	PageTokens, Pi int
}

func (e *PageAlignmentError) Error() string {
	return fmt.Sprintf("kvcache: page granularity %d tokens is not a positive multiple of partition Π=%d",
		e.PageTokens, e.Pi)
}

// PrefixIndex is the shared-prefix KV cache index: a trie over
// pageTokens-aligned token blocks whose nodes own ref-counted quantized
// KV pages backed by a PagedAllocator. Each trie edge is one whole block
// of prompt tokens (the block content is the edge key, so lookups are
// exact and collision-free), which keeps every node boundary Π-aligned
// by construction. Payloads are opaque to the index — the serving layer
// stores netsim-framed page sets — and namespaces (one per quantizer
// seed) keep streams from different seeds apart while sharing one
// allocator, budget and LRU clock.
//
// All methods are safe for concurrent use.
type PrefixIndex struct {
	mu            sync.Mutex
	pageTokens    int
	bytesPerToken int
	alloc         *PagedAllocator
	roots         map[int64]*prefixNode
	clock         int64

	hits, misses, inserts, rejected, evictions, reusedTokens int64
}

// prefixNode is one cached block. Roots (one per namespace) carry no
// payload and seq -1; every other node owns exactly one allocator
// sequence of pageTokens tokens.
type prefixNode struct {
	parent   *prefixNode
	key      string
	children map[string]*prefixNode
	payload  any
	seq      int
	refs     int
	lastUse  int64
	// building marks a reservation: the node holds its allocator sequence
	// but its payload is still being rendered outside the lock. Lookups
	// skip building nodes, concurrent inserts stop at them, and eviction
	// never considers them.
	building bool
}

// NewPrefixIndex builds an index whose resident pages are bounded by
// budgetBytes, with pages of pageTokens tokens at bytesPerToken each.
// pageTokens must be a positive multiple of pi (PageAlignmentError
// otherwise).
func NewPrefixIndex(budgetBytes int64, pageTokens, pi, bytesPerToken int) (*PrefixIndex, error) {
	if pi <= 0 {
		return nil, fmt.Errorf("kvcache: prefix index partition %d must be positive", pi)
	}
	if pageTokens <= 0 || pageTokens%pi != 0 {
		return nil, &PageAlignmentError{PageTokens: pageTokens, Pi: pi}
	}
	alloc, err := NewPagedAllocator(budgetBytes, pageTokens, bytesPerToken)
	if err != nil {
		return nil, err
	}
	return &PrefixIndex{
		pageTokens:    pageTokens,
		bytesPerToken: bytesPerToken,
		alloc:         alloc,
		roots:         map[int64]*prefixNode{},
	}, nil
}

// PageTokens returns the index's block granularity.
func (ix *PrefixIndex) PageTokens() int { return ix.pageTokens }

// blockKey encodes one block of tokens as the trie edge key. Eight bytes
// per token keeps the encoding injective over all int values, so two
// distinct blocks can never alias one edge.
func blockKey(tokens []int) string {
	b := make([]byte, 8*len(tokens))
	for i, t := range tokens {
		u := uint64(t)
		for j := 0; j < 8; j++ {
			b[i*8+j] = byte(u >> (56 - 8*j))
		}
	}
	return string(b)
}

// PrefixMatch is a pinned lookup result. Every matched node's refcount
// is held until Release, so eviction cannot free the payloads while the
// caller restores them. Release is idempotent and nil-safe.
type PrefixMatch struct {
	ix    *PrefixIndex
	nodes []*prefixNode
	// Tokens is the matched token count, a multiple of PageTokens.
	Tokens int
	// Payloads holds each matched block's payload, shallowest block
	// first (block b covers prompt tokens [b·PageTokens, (b+1)·PageTokens)).
	Payloads []any

	released bool // guarded by ix.mu
}

// Release drops the match's refcount pins.
func (m *PrefixMatch) Release() {
	if m == nil {
		return
	}
	m.ix.mu.Lock()
	defer m.ix.mu.Unlock()
	if m.released {
		return
	}
	m.released = true
	for _, nd := range m.nodes {
		nd.refs--
	}
}

// Lookup returns the longest cached block-aligned prefix of prompt in
// namespace ns, capped at maxTokens, or nil on a complete miss. The
// match is pinned; the caller must Release it.
func (ix *PrefixIndex) Lookup(ns int64, prompt []int, maxTokens int) *PrefixMatch {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	n := len(prompt)
	if maxTokens < n {
		n = maxTokens
	}
	nBlocks := 0
	if n > 0 {
		nBlocks = n / ix.pageTokens
	}
	cur := ix.roots[ns]
	var nodes []*prefixNode
	for b := 0; cur != nil && b < nBlocks; b++ {
		child := cur.children[blockKey(prompt[b*ix.pageTokens:(b+1)*ix.pageTokens])]
		if child == nil || child.building {
			break
		}
		nodes = append(nodes, child)
		cur = child
	}
	if len(nodes) == 0 {
		ix.misses++
		return nil
	}
	ix.hits++
	ix.reusedTokens += int64(len(nodes) * ix.pageTokens)
	m := &PrefixMatch{ix: ix, nodes: nodes, Tokens: len(nodes) * ix.pageTokens}
	for _, nd := range nodes {
		nd.refs++
		ix.clock++
		nd.lastUse = ix.clock
		m.Payloads = append(m.Payloads, nd.payload)
	}
	return m
}

// Insert caches the block-aligned prefix of prompt[:upTo] in namespace
// ns, calling build(lo, hi) once per block not already present to render
// its payload (lo/hi are token indexes into prompt). Missing blocks that
// don't fit the budget even after evicting every unpinned leaf are
// skipped (counted as rejected insertions, not errors); a build error
// aborts the insert and frees the reservations from the failed block
// down. Returns the number of blocks added.
//
// The build callbacks run *outside* the index lock: Insert first
// reserves every missing block under the lock (allocator sequence held,
// node marked building), then renders payloads unlocked, then relocks to
// attach them. Slow builds — exporting pages from every head — therefore
// never stall concurrent Lookups or Inserts.
// Lookups skip building nodes, and a concurrent Insert of the same
// prefix stops at one rather than double-building it.
func (ix *PrefixIndex) Insert(ns int64, prompt []int, upTo int, build func(lo, hi int) (any, error)) (int, error) {
	if upTo > len(prompt) {
		upTo = len(prompt)
	}
	nBlocks := 0
	if upTo > 0 {
		nBlocks = upTo / ix.pageTokens
	}
	if nBlocks == 0 {
		return 0, nil
	}

	// Phase 1 — reserve under the lock. Pin the descent path: evictions
	// triggered while making room for a deeper block must not free the
	// ancestors we are hanging it off (pins also protect our own pending
	// reservations, which concurrent eviction must never touch).
	type reservation struct {
		nd     *prefixNode
		lo, hi int
	}
	ix.mu.Lock()
	root := ix.roots[ns]
	if root == nil {
		root = &prefixNode{children: map[string]*prefixNode{}, seq: -1}
		ix.roots[ns] = root
	}
	var pinned []*prefixNode
	var resv []reservation
	cur := root
	for b := 0; b < nBlocks; b++ {
		lo, hi := b*ix.pageTokens, (b+1)*ix.pageTokens
		key := blockKey(prompt[lo:hi])
		child := cur.children[key]
		if child != nil && child.building {
			// A concurrent insert is rendering this block. Stop here: we
			// must not double-build it or hang children off an unbuilt node.
			break
		}
		if child == nil {
			room := true
			for !ix.alloc.CanAdmit(ix.pageTokens) {
				if !ix.evictOne() {
					room = false
					break
				}
			}
			if !room {
				ix.rejected++
				break
			}
			seq, err := ix.alloc.Allocate(ix.pageTokens)
			if err != nil {
				ix.rejected++
				break
			}
			child = &prefixNode{
				parent:   cur,
				key:      key,
				children: map[string]*prefixNode{},
				seq:      seq,
				building: true,
			}
			cur.children[key] = child
			resv = append(resv, reservation{child, lo, hi})
		}
		child.refs++
		ix.clock++
		child.lastUse = ix.clock
		pinned = append(pinned, child)
		cur = child
	}
	ix.mu.Unlock()

	// Phase 2 — render payloads with no lock held. This is where pages
	// are exported from every head; lookups and other inserts proceed
	// concurrently.
	built := make([]any, 0, len(resv))
	var buildErr error
	for _, rv := range resv {
		payload, err := build(rv.lo, rv.hi)
		if err != nil {
			buildErr = err
			break
		}
		built = append(built, payload)
	}

	// Phase 3 — relock to attach. Reservations past a build failure are
	// unlinked and their sequences freed; the shallowest failure detaches
	// the whole reserved suffix (reservations form one chain), keeping
	// cached prefixes contiguous from the root. Nothing else can hold a
	// reference to a pending node — lookups and inserts never pinned it —
	// so unlinking here cannot strand a reader.
	ix.mu.Lock()
	added := 0
	for i, rv := range resv {
		if i < len(built) {
			rv.nd.payload = built[i]
			rv.nd.building = false
			ix.inserts++
			added++
			continue
		}
		_ = ix.alloc.Free(rv.nd.seq)
		delete(rv.nd.parent.children, rv.nd.key)
		rv.nd.parent = nil
	}
	for _, nd := range pinned {
		nd.refs--
	}
	ix.mu.Unlock()
	return added, buildErr
}

// evictOne frees the least-recently-used evictable node: a payload node
// with no children and no outstanding references. Interior nodes are
// never evicted (cached prefixes stay contiguous from the root) and
// pinned nodes never qualify, so eviction can never free pages a live
// restore is reading. Reports whether a node was evicted. Caller holds
// ix.mu.
func (ix *PrefixIndex) evictOne() bool {
	var victim *prefixNode
	var visit func(nd *prefixNode)
	visit = func(nd *prefixNode) {
		for _, c := range nd.children {
			visit(c)
		}
		if nd.seq >= 0 && nd.refs == 0 && len(nd.children) == 0 && !nd.building {
			if victim == nil || nd.lastUse < victim.lastUse {
				victim = nd
			}
		}
	}
	for _, root := range ix.roots {
		visit(root)
	}
	if victim == nil {
		return false
	}
	_ = ix.alloc.Free(victim.seq)
	delete(victim.parent.children, victim.key)
	victim.parent = nil
	ix.evictions++
	return true
}

// PrefixStats is the index's counter snapshot.
type PrefixStats struct {
	// Hits counts lookups matching at least one block; Misses the rest.
	Hits, Misses int64
	// Inserts counts blocks added; InsertRejected counts blocks skipped
	// because no room could be made; Evictions counts blocks freed.
	Inserts, InsertRejected, Evictions int64
	// ReusedTokens is the total matched token count across hits —
	// prefill work skipped. BytesSaved is its byte equivalent.
	ReusedTokens, BytesSaved int64
	// Nodes is the resident block count; BytesUsed / BytesBudget the
	// allocator occupancy.
	Nodes                  int
	BytesUsed, BytesBudget int64
}

// Stats returns the index's counters.
func (ix *PrefixIndex) Stats() PrefixStats {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	nodes := 0
	var visit func(nd *prefixNode)
	visit = func(nd *prefixNode) {
		if nd.seq >= 0 {
			nodes++
		}
		for _, c := range nd.children {
			visit(c)
		}
	}
	for _, root := range ix.roots {
		visit(root)
	}
	return PrefixStats{
		Hits: ix.hits, Misses: ix.misses,
		Inserts: ix.inserts, InsertRejected: ix.rejected, Evictions: ix.evictions,
		ReusedTokens: ix.reusedTokens,
		BytesSaved:   ix.reusedTokens * int64(ix.bytesPerToken),
		Nodes:        nodes,
		BytesUsed:    ix.alloc.UsedBytes(),
		BytesBudget:  ix.alloc.CapacityBytes(),
	}
}

// CheckInvariants verifies the structural properties the fuzz harness
// pins: allocator page conservation, one live allocator sequence of
// exactly pageTokens tokens per resident node (and none besides),
// non-negative refcounts, and parent/child link consistency.
func (ix *PrefixIndex) CheckInvariants() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ix.alloc.CheckConservation(); err != nil {
		return err
	}
	seqs := map[int]bool{}
	var walk func(nd *prefixNode) error
	walk = func(nd *prefixNode) error {
		if nd.refs < 0 {
			return fmt.Errorf("kvcache: prefix node refcount %d", nd.refs)
		}
		if nd.seq >= 0 {
			if seqs[nd.seq] {
				return fmt.Errorf("kvcache: sequence %d owned by two nodes", nd.seq)
			}
			seqs[nd.seq] = true
			n, err := ix.alloc.SeqTokens(nd.seq)
			if err != nil {
				return fmt.Errorf("kvcache: prefix node sequence %d: %w", nd.seq, err)
			}
			if n != ix.pageTokens {
				return fmt.Errorf("kvcache: prefix node sequence %d holds %d tokens, want %d", nd.seq, n, ix.pageTokens)
			}
		}
		for key, c := range nd.children {
			if c.parent != nd || c.key != key {
				return fmt.Errorf("kvcache: prefix trie parent/child link broken")
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	for _, root := range ix.roots {
		if root.seq != -1 || root.payload != nil {
			return fmt.Errorf("kvcache: prefix root carries a payload")
		}
		if err := walk(root); err != nil {
			return err
		}
	}
	if live := len(ix.alloc.Sequences()); live != len(seqs) {
		return fmt.Errorf("kvcache: allocator holds %d sequences, trie references %d", live, len(seqs))
	}
	return nil
}
