package serve

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hackkv/hack/internal/netsim"
)

// CheckInvariants verifies the trie's bookkeeping once no Insert is in
// flight: the used page count equals the resident non-root nodes,
// BytesUsed is used × pageBytes and within BytesBudget, no node is left
// building, refcounts are non-negative, and parent/child links agree.
func (c *prefixCache) CheckInvariants() error {
	c.mu.Lock()
	nodes := 0
	var walk func(nd *prefixNode) error
	walk = func(nd *prefixNode) error {
		for key, ch := range nd.children {
			switch {
			case ch.parent != nd || ch.key != key:
				return errors.New("prefix trie parent/child link broken")
			case ch.refs < 0:
				return fmt.Errorf("prefix node refcount %d", ch.refs)
			case ch.building:
				return errors.New("prefix node left building")
			}
			nodes++
			if err := walk(ch); err != nil {
				return err
			}
		}
		return nil
	}
	var err error
	for _, root := range c.roots {
		if root.parent != nil || root.frames != nil {
			err = errors.New("prefix root carries a page")
		} else {
			err = walk(root)
		}
		if err != nil {
			break
		}
	}
	used := c.used
	c.mu.Unlock()
	if err != nil {
		return err
	}
	if used != nodes {
		return fmt.Errorf("%d pages used, trie holds %d nodes", used, nodes)
	}
	st, _ := c.Stats()
	if st.BytesUsed != int64(used)*c.pageBytes || st.BytesUsed > st.BytesBudget {
		return fmt.Errorf("%d bytes used for %d pages of %d, budget %d", st.BytesUsed, used, c.pageBytes, st.BytesBudget)
	}
	return nil
}

// newTrie builds the prefix tier as its concrete type.
func newTrie(t testing.TB, budget int64, pageTokens, pi, bytesPerToken int) *prefixCache {
	t.Helper()
	be, err := NewPrefixCache(budget, pageTokens, pi, bytesPerToken)
	if err != nil {
		t.Fatal(err)
	}
	return be.(*prefixCache)
}

// blockPrompt returns a deterministic synthetic prompt.
func blockPrompt(tag, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = 1000*tag + i
	}
	return p
}

// blockFrames is a one-frame page whose RequestID carries the block's
// start token, as the serving layer's pages do.
func blockFrames(lo, hi int) ([]*netsim.KVFrame, error) {
	return []*netsim.KVFrame{{RequestID: uint64(lo)}}, nil
}

// blockStarts lists each matched block's start token.
func blockStarts(m *PrefixMatch) []int {
	var out []int
	for _, blk := range m.Blocks {
		out = append(out, int(blk[0].RequestID))
	}
	return out
}

func lookup(t testing.TB, c *prefixCache, ns int64, prompt []int, maxTokens int) *PrefixMatch {
	t.Helper()
	m, err := c.Lookup(ns, prompt, maxTokens)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func stats(c *prefixCache) PrefixCacheStats {
	st, _ := c.Stats()
	return st
}

// TestNewPrefixCacheValidation pins construction errors: a page that
// is not a positive multiple of Π, a non-positive partition, and a
// budget below one page.
func TestNewPrefixCacheValidation(t *testing.T) {
	for _, tc := range []struct {
		budget         int64
		pageTokens, pi int
		bytesPerToken  int
		want           string
	}{
		{1 << 20, 12, 8, 4, "not a positive multiple"},
		{1 << 20, 0, 8, 4, "not a positive multiple"},
		{1 << 20, -8, 8, 4, "not a positive multiple"},
		{1 << 20, 8, 0, 4, "partition"},
		{16*4 - 1, 16, 8, 4, "below one page"},
		{0, 16, 8, 4, "budget"},
		{1 << 20, 16, 8, 0, "budget"},
	} {
		_, err := NewPrefixCache(tc.budget, tc.pageTokens, tc.pi, tc.bytesPerToken)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("NewPrefixCache(%d, %d, %d, %d) = %v, want an error naming %q",
				tc.budget, tc.pageTokens, tc.pi, tc.bytesPerToken, err, tc.want)
		}
	}
	c := newTrie(t, 16*4, 16, 8, 4)
	if st := stats(c); st.BytesBudget != 16*4 || st.BytesUsed != 0 {
		t.Fatalf("one-page cache: %+v", st)
	}
}

// TestPrefixIndexLookupInsert checks the basic warm-path contract:
// inserted blocks are found by prefix lookups, the longest cached
// block-aligned prefix wins, pages come back in block order, and
// lookups never cross namespaces.
func TestPrefixIndexLookupInsert(t *testing.T) {
	c := newTrie(t, 1<<20, 4, 4, 8)
	p := blockPrompt(1, 12)
	built := 0
	added, err := c.Insert(7, p, 12, func(lo, hi int) ([]*netsim.KVFrame, error) {
		built++
		return blockFrames(lo, hi)
	})
	if err != nil || added != 3 || built != 3 {
		t.Fatalf("insert: added=%d built=%d err=%v", added, built, err)
	}

	// Re-inserting the same prefix builds nothing.
	added, err = c.Insert(7, p, 12, func(lo, hi int) ([]*netsim.KVFrame, error) {
		return nil, fmt.Errorf("rebuilt cached block [%d,%d)", lo, hi)
	})
	if err != nil || added != 0 {
		t.Fatalf("idempotent insert: added=%d err=%v", added, err)
	}

	m := lookup(t, c, 7, append(append([]int(nil), p[:8]...), 9999, 9998, 9997, 9996), 12)
	if m == nil || m.Tokens != 8 {
		t.Fatalf("lookup matched %v, want 8 tokens", m)
	}
	if got := blockStarts(m); len(got) != 2 || got[0] != 0 || got[1] != 4 {
		t.Fatalf("block starts %v, want [0 4]", got)
	}
	m.Release()
	m.Release() // idempotent

	// maxTokens caps the match below the cached depth.
	m = lookup(t, c, 7, p, 5)
	if m == nil || m.Tokens != 4 {
		t.Fatalf("capped lookup matched %v, want 4 tokens", m)
	}
	m.Release()

	// Another namespace sees nothing.
	if m := lookup(t, c, 8, p, 12); m != nil {
		t.Fatalf("cross-namespace lookup matched %d tokens", m.Tokens)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := stats(c)
	if st.Hits != 2 || st.Misses != 1 || st.Inserts != 3 || st.TokensReused != 12 {
		t.Fatalf("stats %+v", st)
	}
	if st.BytesSaved != st.TokensReused*8 {
		t.Fatalf("bytes saved %d, want %d", st.BytesSaved, st.TokensReused*8)
	}
	if st.Nodes != 3 || st.BytesUsed != 3*4*8 {
		t.Fatalf("residency %+v, want 3 pages of 32 bytes", st)
	}
}

// TestPrefixIndexLRUEviction fills the budget and checks that the
// least-recently-used unpinned leaf is evicted to admit new blocks,
// while interior nodes (which would orphan deeper blocks) survive.
func TestPrefixIndexLRUEviction(t *testing.T) {
	// Budget: exactly 3 pages of 4 tokens × 8 bytes.
	c := newTrie(t, 3*4*8, 4, 4, 8)
	a, b, d := blockPrompt(1, 4), blockPrompt(2, 4), blockPrompt(3, 4)
	for _, p := range [][]int{a, b, d} {
		if _, err := c.Insert(0, p, 4, blockFrames); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a and d so b is the LRU leaf.
	lookup(t, c, 0, a, 4).Release()
	lookup(t, c, 0, d, 4).Release()
	e := blockPrompt(4, 4)
	if _, err := c.Insert(0, e, 4, blockFrames); err != nil {
		t.Fatal(err)
	}
	if m := lookup(t, c, 0, b, 4); m != nil {
		t.Fatalf("LRU block survived eviction")
	}
	for _, p := range [][]int{a, d, e} {
		m := lookup(t, c, 0, p, 4)
		if m == nil {
			t.Fatalf("recently-used block evicted")
		}
		m.Release()
	}
	st := stats(c)
	if st.Evictions != 1 || st.Nodes != 3 {
		t.Fatalf("stats %+v, want 1 eviction and 3 nodes", st)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixIndexPinnedBlocksEviction is the ref-counting scenario: a
// block pinned by an unreleased Lookup cannot be evicted, so an insert
// that needs its page is rejected rather than freeing pages a restore
// is still reading. Releasing the match makes the block evictable.
func TestPrefixIndexPinnedBlocksEviction(t *testing.T) {
	c := newTrie(t, 1*4*8, 4, 4, 8) // room for exactly one block
	a, b := blockPrompt(1, 4), blockPrompt(2, 4)
	if _, err := c.Insert(0, a, 4, blockFrames); err != nil {
		t.Fatal(err)
	}
	m := lookup(t, c, 0, a, 4)
	if m == nil {
		t.Fatal("lookup missed")
	}
	added, err := c.Insert(0, b, 4, blockFrames)
	if err != nil || added != 0 {
		t.Fatalf("insert against a pinned full cache: added=%d err=%v", added, err)
	}
	if st := stats(c); st.InsertRejected != 1 || st.Evictions != 0 {
		t.Fatalf("stats %+v, want 1 rejection and 0 evictions", st)
	}
	m.Release()
	if added, err = c.Insert(0, b, 4, blockFrames); err != nil || added != 1 {
		t.Fatalf("insert after release: added=%d err=%v", added, err)
	}
	if m := lookup(t, c, 0, a, 4); m != nil {
		t.Fatal("evicted block still resident")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixIndexBuildErrorAborts checks that a build failure mid-insert
// frees the failed block's reservation and keeps earlier blocks.
func TestPrefixIndexBuildErrorAborts(t *testing.T) {
	c := newTrie(t, 1<<20, 4, 4, 8)
	boom := errors.New("boom")
	p := blockPrompt(1, 12)
	added, err := c.Insert(0, p, 12, func(lo, hi int) ([]*netsim.KVFrame, error) {
		if lo == 4 {
			return nil, boom
		}
		return blockFrames(lo, hi)
	})
	if !errors.Is(err, boom) || added != 1 {
		t.Fatalf("added=%d err=%v", added, err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := stats(c); st.Nodes != 1 || st.Inserts != 1 {
		t.Fatalf("stats %+v, want the one surviving block", st)
	}
	m := lookup(t, c, 0, p, 12)
	if m == nil || m.Tokens != 4 {
		t.Fatalf("surviving prefix %v, want 4 tokens", m)
	}
	m.Release()
}

// TestPrefixIndexConcurrent hammers one trie from many goroutines (run
// under -race): concurrent inserts, pinned lookups and stats over a
// budget small enough to force constant eviction pressure.
func TestPrefixIndexConcurrent(t *testing.T) {
	c := newTrie(t, 8*4*8, 4, 4, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p := blockPrompt(g%4, 8)
				if _, err := c.Insert(int64(g%2), p, 8, blockFrames); err != nil {
					t.Error(err)
					return
				}
				if m := lookup(t, c, int64(g%2), p, 8); m != nil {
					for bi, lo := range blockStarts(m) {
						if lo != bi*4 {
							t.Errorf("block %d starts at %d, want %d", bi, lo, bi*4)
							break
						}
					}
					m.Release()
				}
				_ = stats(c)
			}
		}(g)
	}
	wg.Wait()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixIndexLookupDuringSlowInsert is the lock-scope regression
// test for the three-phase Insert: the build callback (where pages are
// exported from every head) runs with no lock held, so a stalled insert
// must not block concurrent lookups of already-cached prefixes — nor a
// concurrent insert of an unrelated prompt.
func TestPrefixIndexLookupDuringSlowInsert(t *testing.T) {
	c := newTrie(t, 1<<20, 4, 4, 8)
	warm := blockPrompt(1, 8)
	if _, err := c.Insert(0, warm, 8, blockFrames); err != nil {
		t.Fatal(err)
	}

	// A slow insert of a different prompt: the build callback blocks
	// until released.
	entered := make(chan struct{})
	release := make(chan struct{})
	slowDone := make(chan error, 1)
	go func() {
		_, err := c.Insert(0, blockPrompt(2, 8), 8, func(lo, hi int) ([]*netsim.KVFrame, error) {
			if lo == 0 {
				close(entered)
				<-release
			}
			return blockFrames(lo, hi)
		})
		slowDone <- err
	}()
	<-entered

	// With the builder stalled mid-insert, lookups and an unrelated
	// insert must complete promptly.
	ok := make(chan struct{})
	go func() {
		defer close(ok)
		m, _ := c.Lookup(0, warm, 8)
		if m == nil || m.Tokens != 8 {
			t.Errorf("warm lookup under a stalled insert matched %v, want 8 tokens", m)
		}
		m.Release()
		if _, err := c.Insert(0, blockPrompt(3, 4), 4, blockFrames); err != nil {
			t.Errorf("unrelated insert under a stalled insert: %v", err)
		}
		// The stalled prompt's own blocks are reserved (building): a
		// lookup of it must miss rather than surface a half-built node.
		if m, _ := c.Lookup(0, blockPrompt(2, 8), 8); m != nil {
			t.Errorf("lookup matched %d tokens of a block still building", m.Tokens)
			m.Release()
		}
	}()
	select {
	case <-ok:
	case <-time.After(5 * time.Second):
		t.Fatal("lookup/insert blocked behind a stalled insert's page export")
	}

	close(release)
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
	// Once released, the slow insert's blocks are visible.
	m := lookup(t, c, 0, blockPrompt(2, 8), 8)
	if m == nil || m.Tokens != 8 {
		t.Fatalf("completed insert not visible: %v", m)
	}
	m.Release()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// FuzzPrefixIndex drives the trie with an arbitrary operation script —
// inserts, pinned lookups, releases — over a budget small enough to
// exercise eviction, and asserts the structural invariants after every
// step: page count equal to the resident nodes, bytes within budget, no
// node left building, non-negative refcounts, consistent trie links.
func FuzzPrefixIndex(f *testing.F) {
	f.Add([]byte{0x10, 0x50, 0x91, 0x12, 0xd0})
	f.Add([]byte{0x00, 0x01, 0x02, 0x40, 0x41, 0x80, 0x81, 0xc0})
	f.Fuzz(func(t *testing.T, script []byte) {
		c := newTrie(t, 6*4*8, 4, 4, 8) // 6 blocks of 4 tokens
		var pinned []*PrefixMatch
		defer func() {
			for _, m := range pinned {
				m.Release()
			}
		}()
		for _, op := range script {
			ns := int64(op >> 5 & 1)          // two namespaces
			p := blockPrompt(int(op>>2&7), 8) // eight distinct prompts
			switch op >> 6 {
			case 0: // insert up to a block boundary
				upTo := min(4*(1+int(op&3)), len(p))
				if _, err := c.Insert(ns, p, upTo, blockFrames); err != nil {
					t.Fatal(err)
				}
			case 1: // lookup and hold the pin
				if m := lookup(t, c, ns, p, len(p)); m != nil {
					if m.Tokens%4 != 0 || m.Tokens <= 0 || len(m.Blocks) != m.Tokens/4 {
						t.Fatalf("match of %d tokens in %d blocks", m.Tokens, len(m.Blocks))
					}
					pinned = append(pinned, m)
				}
			case 2: // release an outstanding pin
				if len(pinned) > 0 {
					i := int(op&0x3f) % len(pinned)
					pinned[i].Release()
					pinned = append(pinned[:i], pinned[i+1:]...)
				}
			case 3: // stats probe
				if st := stats(c); st.Nodes > 6 {
					t.Fatalf("%d resident nodes in a 6-page budget", st.Nodes)
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
