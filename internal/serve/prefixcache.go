package serve

import (
	"fmt"
	"sync"

	"github.com/hackkv/hack/internal/netsim"
)

// prefixCache is the one PrefixCacheBackend: a trie over
// pageTokens-aligned token blocks whose nodes own ref-counted pages of
// KV frames. Each trie edge is one whole block of prompt tokens (the
// block content is the edge key, so lookups are exact and
// collision-free), which keeps every node boundary Π-aligned by
// construction. Residency is a page count: every non-root node, built
// or building, holds one page of the capacity the byte budget buys.
// Namespaces (one per quantizer seed) keep streams from different seeds
// apart while sharing one budget and LRU clock.
//
// All methods are safe for concurrent use.
type prefixCache struct {
	mu            sync.Mutex
	pageTokens    int
	bytesPerToken int
	pageBytes     int64
	capacity      int // pages the budget holds
	used          int // pages held by non-root nodes
	roots         map[int64]*prefixNode
	clock         int64

	hits, misses, inserts, rejected, evictions, reusedTokens int64
}

// prefixNode is one cached block. Roots (one per namespace, the only
// nodes without a parent) carry no frames and hold no page.
type prefixNode struct {
	parent   *prefixNode
	key      string
	children map[string]*prefixNode
	frames   []*netsim.KVFrame
	refs     int
	lastUse  int64
	// building marks a reservation: the node holds its page but its
	// frames are still being rendered outside the lock. Lookups skip
	// building nodes, concurrent inserts stop at them, and eviction
	// never considers them.
	building bool
}

// NewPrefixCache builds the in-process prefix tier: resident pages are
// bounded by budgetBytes, in pages of pageTokens tokens (a positive
// multiple of the quantization partition pi) at bytesPerToken each.
// A budget below one page is an error.
func NewPrefixCache(budgetBytes int64, pageTokens, pi, bytesPerToken int) (PrefixCacheBackend, error) {
	if pi <= 0 {
		return nil, fmt.Errorf("prefix cache partition %d must be positive", pi)
	}
	if pageTokens <= 0 || pageTokens%pi != 0 {
		return nil, fmt.Errorf("prefix cache page of %d tokens is not a positive multiple of partition Π=%d", pageTokens, pi)
	}
	if budgetBytes <= 0 || bytesPerToken <= 0 {
		return nil, fmt.Errorf("prefix cache budget %d bytes at %d bytes per token", budgetBytes, bytesPerToken)
	}
	pageBytes := int64(pageTokens) * int64(bytesPerToken)
	capacity := int(budgetBytes / pageBytes)
	if capacity == 0 {
		return nil, fmt.Errorf("prefix cache budget %d bytes is below one page (%d)", budgetBytes, pageBytes)
	}
	return &prefixCache{
		pageTokens:    pageTokens,
		bytesPerToken: bytesPerToken,
		pageBytes:     pageBytes,
		capacity:      capacity,
		roots:         map[int64]*prefixNode{},
	}, nil
}

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

// Lookup returns the longest cached block-aligned prefix of prompt in
// namespace ns, capped at maxTokens, or nil on a complete miss. Every
// matched node stays pinned until the match is released, so eviction
// cannot free the frames while the caller restores them.
func (c *prefixCache) Lookup(ns int64, prompt []int, maxTokens int) (*PrefixMatch, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	nBlocks := max(min(len(prompt), maxTokens), 0) / c.pageTokens
	cur := c.roots[ns]
	var nodes []*prefixNode
	for b := 0; cur != nil && b < nBlocks; b++ {
		child := cur.children[blockKey(prompt[b*c.pageTokens:(b+1)*c.pageTokens])]
		if child == nil || child.building {
			break
		}
		nodes = append(nodes, child)
		cur = child
	}
	if len(nodes) == 0 {
		c.misses++
		return nil, nil
	}
	c.hits++
	c.reusedTokens += int64(len(nodes) * c.pageTokens)
	m := &PrefixMatch{Tokens: len(nodes) * c.pageTokens, release: func() { c.unpin(nodes) }}
	for _, nd := range nodes {
		nd.refs++
		c.clock++
		nd.lastUse = c.clock
		m.Blocks = append(m.Blocks, nd.frames)
	}
	return m, nil
}

// unpin drops one reference from each node.
func (c *prefixCache) unpin(nodes []*prefixNode) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, nd := range nodes {
		nd.refs--
	}
}

// Insert caches the block-aligned prefix of prompt[:upTo] in namespace
// ns, calling build(lo, hi) once per block not already present to render
// its frames (lo/hi are token indexes into prompt). Missing blocks that
// don't fit the budget even after evicting every unpinned leaf are
// skipped (counted as rejected insertions, not errors); a build error
// aborts the insert and frees the reservations from the failed block
// down. Returns the number of blocks added.
//
// The build callbacks run *outside* the lock: Insert first reserves
// every missing block under the lock (page held, node marked building),
// then renders frames unlocked, then relocks to attach them. Slow
// builds — exporting pages from every head — therefore never stall
// concurrent Lookups or Inserts. Lookups skip building nodes, and a
// concurrent Insert of the same prefix stops at one rather than
// double-building it.
func (c *prefixCache) Insert(ns int64, prompt []int, upTo int, build func(lo, hi int) ([]*netsim.KVFrame, error)) (int, error) {
	nBlocks := max(min(upTo, len(prompt)), 0) / c.pageTokens
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
	c.mu.Lock()
	root := c.roots[ns]
	if root == nil {
		root = &prefixNode{children: map[string]*prefixNode{}}
		c.roots[ns] = root
	}
	var pinned []*prefixNode
	var resv []reservation
	cur := root
	for b := 0; b < nBlocks; b++ {
		lo, hi := b*c.pageTokens, (b+1)*c.pageTokens
		key := blockKey(prompt[lo:hi])
		child := cur.children[key]
		if child != nil && child.building {
			// A concurrent insert is rendering this block. Stop here: we
			// must not double-build it or hang children off an unbuilt node.
			break
		}
		if child == nil {
			for c.used >= c.capacity && c.evictOne() {
			}
			if c.used >= c.capacity {
				c.rejected++
				break
			}
			c.used++
			child = &prefixNode{
				parent:   cur,
				key:      key,
				children: map[string]*prefixNode{},
				building: true,
			}
			cur.children[key] = child
			resv = append(resv, reservation{child, lo, hi})
		}
		child.refs++
		c.clock++
		child.lastUse = c.clock
		pinned = append(pinned, child)
		cur = child
	}
	c.mu.Unlock()

	// Phase 2 — render frames with no lock held. This is where pages
	// are exported from every head; lookups and other inserts proceed
	// concurrently.
	built := make([][]*netsim.KVFrame, 0, len(resv))
	var buildErr error
	for _, rv := range resv {
		frames, err := build(rv.lo, rv.hi)
		if err != nil {
			buildErr = err
			break
		}
		built = append(built, frames)
	}

	// Phase 3 — relock to attach. Reservations past a build failure are
	// unlinked and their pages freed; the shallowest failure detaches
	// the whole reserved suffix (reservations form one chain), keeping
	// cached prefixes contiguous from the root. Nothing else can hold a
	// reference to a pending node — lookups and inserts never pinned it —
	// so unlinking here cannot strand a reader.
	c.mu.Lock()
	for i, rv := range resv {
		if i < len(built) {
			rv.nd.frames = built[i]
			rv.nd.building = false
			c.inserts++
			continue
		}
		c.unlink(rv.nd)
	}
	for _, nd := range pinned {
		nd.refs--
	}
	c.mu.Unlock()
	return len(built), buildErr
}

// evictOne frees the least-recently-used evictable node: a non-root
// node with no children and no outstanding references. Interior nodes
// are never evicted (cached prefixes stay contiguous from the root) and
// pinned nodes never qualify, so eviction can never free pages a live
// restore is reading. Reports whether a node was evicted. Caller holds
// c.mu.
func (c *prefixCache) evictOne() bool {
	var victim *prefixNode
	var visit func(nd *prefixNode)
	visit = func(nd *prefixNode) {
		for _, ch := range nd.children {
			visit(ch)
		}
		if nd.parent != nil && nd.refs == 0 && len(nd.children) == 0 && !nd.building {
			if victim == nil || nd.lastUse < victim.lastUse {
				victim = nd
			}
		}
	}
	for _, root := range c.roots {
		visit(root)
	}
	if victim == nil {
		return false
	}
	c.unlink(victim)
	c.evictions++
	return true
}

// unlink detaches a leaf from the trie and frees its page. Caller holds
// c.mu.
func (c *prefixCache) unlink(nd *prefixNode) {
	delete(nd.parent.children, nd.key)
	nd.parent = nil
	c.used--
}

// Stats returns the tier's counters; Errors is the server's to fill.
func (c *prefixCache) Stats() (PrefixCacheStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PrefixCacheStats{
		Hits: c.hits, Misses: c.misses,
		Inserts: c.inserts, InsertRejected: c.rejected, Evictions: c.evictions,
		TokensReused: c.reusedTokens,
		BytesSaved:   c.reusedTokens * int64(c.bytesPerToken),
		Nodes:        c.used,
		BytesUsed:    int64(c.used) * c.pageBytes,
		BytesBudget:  int64(c.capacity) * c.pageBytes,
	}, nil
}

// Close releases nothing: the tier holds only memory.
func (c *prefixCache) Close() error { return nil }
