package kvcache

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestAllocateRejectsNonPositive is the regression test for the
// admission bug swept in this change: Allocate used to accept zero and
// negative token counts, creating sequences that held pages forever
// (pagesFor(0) == 0 pages, but a live table entry) and corrupting the
// conservation accounting.
func TestAllocateRejectsNonPositive(t *testing.T) {
	a, err := NewPagedAllocator(1<<20, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tokens := range []int{0, -1, -100} {
		if _, err := a.Allocate(tokens); err == nil {
			t.Fatalf("Allocate(%d) accepted", tokens)
		}
		if a.CanAdmit(tokens) {
			t.Fatalf("CanAdmit(%d) true", tokens)
		}
	}
	if err := a.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestPagedAllocatorConcurrent drives the allocator from many
// goroutines (run under -race) and checks page conservation at the end:
// every page accounted for exactly once across the free list and the
// page tables.
func TestPagedAllocatorConcurrent(t *testing.T) {
	a, err := NewPagedAllocator(64*16*4, 16, 4) // 64 pages
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				seq, err := a.Allocate(1 + (g+i)%40)
				if err != nil {
					continue
				}
				for j := 0; j < i%5; j++ {
					_ = a.AppendToken(seq)
				}
				if i%3 != 0 {
					if err := a.Free(seq); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := a.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	for _, seq := range a.Sequences() {
		if err := a.Free(seq); err != nil {
			t.Fatal(err)
		}
	}
	if a.FreePages() != a.TotalPages() {
		t.Fatalf("after freeing all: %d of %d pages free", a.FreePages(), a.TotalPages())
	}
}

// TestPageAlignmentError pins the typed misalignment error: a page
// granularity that is not a positive multiple of Π must surface as a
// PageAlignmentError through errors.As.
func TestPageAlignmentError(t *testing.T) {
	for _, pageTokens := range []int{12, 0, -8} {
		_, err := NewPrefixIndex(1<<20, pageTokens, 8, 4)
		var pe *PageAlignmentError
		if !errors.As(err, &pe) {
			t.Fatalf("pageTokens=%d: got %v, want PageAlignmentError", pageTokens, err)
		}
		if pe.PageTokens != pageTokens || pe.Pi != 8 {
			t.Fatalf("error carries (%d, %d), want (%d, 8)", pe.PageTokens, pe.Pi, pageTokens)
		}
	}
	if _, err := NewPrefixIndex(1<<20, 16, 8, 4); err != nil {
		t.Fatalf("aligned construction failed: %v", err)
	}
}

// prompt returns a deterministic synthetic prompt.
func prompt(tag, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = 1000*tag + i
	}
	return p
}

// TestPrefixIndexLookupInsert checks the basic warm-path contract:
// inserted blocks are found by prefix lookups, the longest cached
// block-aligned prefix wins, payloads come back in block order, and
// lookups never cross namespaces.
func TestPrefixIndexLookupInsert(t *testing.T) {
	ix, err := NewPrefixIndex(1<<20, 4, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := prompt(1, 12)
	built := 0
	added, err := ix.Insert(7, p, 12, func(lo, hi int) (any, error) {
		built++
		return fmt.Sprintf("block[%d,%d)", lo, hi), nil
	})
	if err != nil || added != 3 || built != 3 {
		t.Fatalf("insert: added=%d built=%d err=%v", added, built, err)
	}

	// Re-inserting the same prefix builds nothing.
	added, err = ix.Insert(7, p, 12, func(lo, hi int) (any, error) {
		return nil, fmt.Errorf("rebuilt cached block [%d,%d)", lo, hi)
	})
	if err != nil || added != 0 {
		t.Fatalf("idempotent insert: added=%d err=%v", added, err)
	}

	m := ix.Lookup(7, append(append([]int(nil), p[:8]...), 9999, 9998, 9997, 9996), 12)
	if m == nil || m.Tokens != 8 {
		t.Fatalf("lookup matched %v, want 8 tokens", m)
	}
	if len(m.Payloads) != 2 || m.Payloads[0] != "block[0,4)" || m.Payloads[1] != "block[4,8)" {
		t.Fatalf("payloads %v", m.Payloads)
	}
	m.Release()
	m.Release() // idempotent

	// maxTokens caps the match below the cached depth.
	m = ix.Lookup(7, p, 5)
	if m == nil || m.Tokens != 4 {
		t.Fatalf("capped lookup matched %v, want 4 tokens", m)
	}
	m.Release()

	// Another namespace sees nothing.
	if m := ix.Lookup(8, p, 12); m != nil {
		t.Fatalf("cross-namespace lookup matched %d tokens", m.Tokens)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Inserts != 3 || st.ReusedTokens != 12 {
		t.Fatalf("stats %+v", st)
	}
	if st.BytesSaved != st.ReusedTokens*8 {
		t.Fatalf("bytes saved %d, want %d", st.BytesSaved, st.ReusedTokens*8)
	}
}

// TestPrefixIndexLRUEviction fills the budget and checks that the
// least-recently-used unpinned leaf is evicted to admit new blocks,
// while interior nodes (which would orphan deeper blocks) survive.
func TestPrefixIndexLRUEviction(t *testing.T) {
	// Budget: exactly 3 pages of 4 tokens × 8 bytes.
	ix, err := NewPrefixIndex(3*4*8, 4, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	build := func(lo, hi int) (any, error) { return [2]int{lo, hi}, nil }
	a, b, c := prompt(1, 4), prompt(2, 4), prompt(3, 4)
	for _, p := range [][]int{a, b, c} {
		if _, err := ix.Insert(0, p, 4, build); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a and c so b is the LRU leaf.
	ix.Lookup(0, a, 4).Release()
	ix.Lookup(0, c, 4).Release()
	d := prompt(4, 4)
	if _, err := ix.Insert(0, d, 4, build); err != nil {
		t.Fatal(err)
	}
	if m := ix.Lookup(0, b, 4); m != nil {
		t.Fatalf("LRU block survived eviction")
	}
	for _, p := range [][]int{a, c, d} {
		m := ix.Lookup(0, p, 4)
		if m == nil {
			t.Fatalf("recently-used block evicted")
		}
		m.Release()
	}
	st := ix.Stats()
	if st.Evictions != 1 || st.Nodes != 3 {
		t.Fatalf("stats %+v, want 1 eviction and 3 nodes", st)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixIndexPinnedBlocksEviction is the ref-counting scenario: a
// block pinned by an unreleased Lookup cannot be evicted, so an insert
// that needs its page is rejected rather than freeing pages a restore
// is still reading. Releasing the match makes the block evictable.
func TestPrefixIndexPinnedBlocksEviction(t *testing.T) {
	ix, err := NewPrefixIndex(1*4*8, 4, 4, 8) // room for exactly one block
	if err != nil {
		t.Fatal(err)
	}
	build := func(lo, hi int) (any, error) { return "page", nil }
	a, b := prompt(1, 4), prompt(2, 4)
	if _, err := ix.Insert(0, a, 4, build); err != nil {
		t.Fatal(err)
	}
	m := ix.Lookup(0, a, 4)
	if m == nil {
		t.Fatal("lookup missed")
	}
	added, err := ix.Insert(0, b, 4, build)
	if err != nil || added != 0 {
		t.Fatalf("insert against a pinned full cache: added=%d err=%v", added, err)
	}
	if st := ix.Stats(); st.InsertRejected != 1 || st.Evictions != 0 {
		t.Fatalf("stats %+v, want 1 rejection and 0 evictions", st)
	}
	m.Release()
	if added, err = ix.Insert(0, b, 4, build); err != nil || added != 1 {
		t.Fatalf("insert after release: added=%d err=%v", added, err)
	}
	if m := ix.Lookup(0, a, 4); m != nil {
		t.Fatal("evicted block still resident")
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixIndexBuildErrorAborts checks that a build failure mid-insert
// frees the failed block's reservation and keeps earlier blocks.
func TestPrefixIndexBuildErrorAborts(t *testing.T) {
	ix, err := NewPrefixIndex(1<<20, 4, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	p := prompt(1, 8)
	added, err := ix.Insert(0, p, 8, func(lo, hi int) (any, error) {
		if lo == 4 {
			return nil, boom
		}
		return "ok", nil
	})
	if !errors.Is(err, boom) || added != 1 {
		t.Fatalf("added=%d err=%v", added, err)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	m := ix.Lookup(0, p, 8)
	if m == nil || m.Tokens != 4 {
		t.Fatalf("surviving prefix %v, want 4 tokens", m)
	}
	m.Release()
}

// TestPrefixIndexConcurrent hammers one index from many goroutines (run
// under -race): concurrent inserts, pinned lookups and stats over a
// budget small enough to force constant eviction pressure.
func TestPrefixIndexConcurrent(t *testing.T) {
	ix, err := NewPrefixIndex(8*4*8, 4, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p := prompt(g%4, 8)
				if _, err := ix.Insert(int64(g%2), p, 8, func(lo, hi int) (any, error) {
					return [2]int{lo, hi}, nil
				}); err != nil {
					t.Error(err)
					return
				}
				if m := ix.Lookup(int64(g%2), p, 8); m != nil {
					for bi, pay := range m.Payloads {
						want := [2]int{bi * 4, (bi + 1) * 4}
						if pay != any(want) {
							t.Errorf("payload %d = %v, want %v", bi, pay, want)
							break
						}
					}
					m.Release()
				}
				_ = ix.Stats()
			}
		}(g)
	}
	wg.Wait()
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixIndexLookupDuringSlowInsert is the lock-scope regression
// test for the three-phase Insert: the build callback (where the remote
// tier's wire round-trips happen) runs with no index lock held, so a
// stalled insert must not block concurrent lookups of already-cached
// prefixes — nor a concurrent insert of an unrelated prompt. Before the
// split, Insert held the lock across the wire I/O and this test
// deadlocks on the timeout.
func TestPrefixIndexLookupDuringSlowInsert(t *testing.T) {
	ix, err := NewPrefixIndex(1<<20, 4, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	warm := prompt(1, 8)
	if _, err := ix.Insert(0, warm, 8, func(lo, hi int) (any, error) {
		return [2]int{lo, hi}, nil
	}); err != nil {
		t.Fatal(err)
	}

	// A slow insert of a different prompt: the build callback blocks
	// until released, simulating a slow page export from every head.
	entered := make(chan struct{})
	release := make(chan struct{})
	slowDone := make(chan error, 1)
	go func() {
		_, err := ix.Insert(0, prompt(2, 8), 8, func(lo, hi int) (any, error) {
			if lo == 0 {
				close(entered)
				<-release
			}
			return [2]int{lo, hi}, nil
		})
		slowDone <- err
	}()
	<-entered

	// With the builder stalled mid-insert, lookups and an unrelated
	// insert must complete promptly.
	ok := make(chan struct{})
	go func() {
		m := ix.Lookup(0, warm, 8)
		if m == nil || m.Tokens != 8 {
			t.Errorf("warm lookup under a stalled insert matched %v, want 8 tokens", m)
		}
		if m != nil {
			m.Release()
		}
		if _, err := ix.Insert(0, prompt(3, 4), 4, func(lo, hi int) (any, error) {
			return [2]int{lo, hi}, nil
		}); err != nil {
			t.Errorf("unrelated insert under a stalled insert: %v", err)
		}
		// The stalled prompt's own blocks are reserved (building): a
		// lookup of it must miss rather than surface a half-built node.
		if m := ix.Lookup(0, prompt(2, 8), 8); m != nil {
			t.Errorf("lookup matched %d tokens of a block still building", m.Tokens)
			m.Release()
		}
		close(ok)
	}()
	select {
	case <-ok:
	case <-time.After(5 * time.Second):
		t.Fatal("lookup/insert blocked behind a stalled insert's wire I/O")
	}

	close(release)
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
	// Once released, the slow insert's blocks are visible.
	m := ix.Lookup(0, prompt(2, 8), 8)
	if m == nil || m.Tokens != 8 {
		t.Fatalf("completed insert not visible: %v", m)
	}
	m.Release()
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
