package serve

import (
	"fmt"

	"github.com/hackkv/hack/internal/attention"
	"github.com/hackkv/hack/internal/model"
	"github.com/hackkv/hack/internal/netsim"
	"github.com/hackkv/hack/internal/quant"
)

// This file is the serving half of the shared-prefix KV tier: requests
// whose prompts share a block-aligned token prefix reuse the quantized
// KV pages a previous request already produced, skipping prefill over
// the matched span. The index side is prefixCache (prefixcache.go), a
// trie over Π-aligned blocks that counts its resident pages against a
// byte budget, with ref-counted LRU eviction; the numeric side lives in
// attention's HACK heads, whose position-keyed rounding makes a
// restored page bit-identical to the cold path for the same
// (prompt, seed), whatever prompt produced it.
//
// The tier is one in-process trie per server. Its pages are netsim KV
// frames — the same framing the disaggregated wire uses — so a cached
// block holds exactly the bytes a KV handoff would ship.

// PrefixCacheStats is the tier's counter snapshot, surfaced in
// Snapshot.PrefixCache and the Prometheus exposition.
type PrefixCacheStats struct {
	// Hits counts lookups that matched at least one block; Misses the
	// rest.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Inserts counts blocks cached; InsertRejected blocks skipped
	// because no budget room could be made; Evictions blocks freed.
	Inserts        int64 `json:"inserts"`
	InsertRejected int64 `json:"insert_rejected"`
	Evictions      int64 `json:"evictions"`
	// TokensReused is the total prefill tokens skipped across hits;
	// BytesSaved the KV bytes that did not have to be recomputed.
	TokensReused int64 `json:"tokens_reused"`
	BytesSaved   int64 `json:"bytes_saved"`
	// Nodes / BytesUsed / BytesBudget describe residency.
	Nodes       int   `json:"nodes"`
	BytesUsed   int64 `json:"bytes_used"`
	BytesBudget int64 `json:"bytes_budget"`
	// Errors counts tier failures the server absorbed by falling back
	// to a cold prefill (the tier degrades, requests never fail on it).
	Errors int64 `json:"errors"`
}

// PrefixMatch is one lookup's result: the longest cached block-aligned
// prefix, as per-block frame sets (one frame per (layer, head), with
// the frame's RequestID field carrying the block's start token index).
// Callers must Release the match once the pages are restored; until
// then the backing blocks are pinned against eviction.
type PrefixMatch struct {
	// Tokens is the matched token count, a multiple of the page size.
	Tokens int
	// Blocks holds each matched block's frames, shallowest first.
	Blocks [][]*netsim.KVFrame

	release func()
}

// Release unpins the match. Idempotent and nil-safe.
func (m *PrefixMatch) Release() {
	if m == nil || m.release == nil {
		return
	}
	m.release()
	m.release = nil
}

// PrefixCacheBackend is the storage tier behind the shared-prefix
// cache. It has one implementation, the in-process trie NewPrefixCache
// builds; the interface is kept for the frozen benchmark harness and so
// tests can substitute a failing fake. Implementations must be safe for
// concurrent use; seed namespaces isolate quantizer streams.
type PrefixCacheBackend interface {
	// Lookup returns the longest cached block-aligned prefix of prompt
	// in the seed's namespace, capped at maxTokens, or (nil, nil) on a
	// complete miss.
	Lookup(seed int64, prompt []int, maxTokens int) (*PrefixMatch, error)
	// Insert caches prompt[:upTo]'s block-aligned prefix, calling build
	// once per block not already cached. It returns the blocks added;
	// blocks that don't fit the budget are skipped, not errors.
	Insert(seed int64, prompt []int, upTo int, build func(lo, hi int) ([]*netsim.KVFrame, error)) (int, error)
	// Stats snapshots the tier's counters.
	Stats() (PrefixCacheStats, error)
	// Close releases the tier's resources.
	Close() error
}

// prefixBytesPerToken is the budget-accounting cost of one cached
// token: the framed wire size of its quantized K and V rows (codes
// plus FP16 min/scale metadata) summed over every (layer, head), for a
// page of one Π-token partition.
func prefixBytesPerToken(spec model.Spec, pi, kvBits int) int {
	dh := spec.HeadDim
	kMetaBlocks := pi * ((dh + pi - 1) / pi)        // K: per-row partitions
	vMetaBlocks := dh                               // V: per-column partitions
	perHead := 2*quant.PackedBytes(pi*dh, kvBits) + // K + V codes
		4*(kMetaBlocks+vMetaBlocks) // fp16 min+scale per partition
	perBlock := perHead * spec.Layers * spec.Heads
	return (perBlock + pi - 1) / pi
}

// prefixTier is the server's view of an enabled prefix cache. The
// server builds the backend and closes it on Shutdown. A failing
// backend call is counted and the request takes the cold path.
type prefixTier struct {
	backend    PrefixCacheBackend
	pageTokens int
}

// newPrefixTier validates the serving configuration's prefix cache
// against the attention backend and builds the tier, in pages of one
// partition (Π tokens). The backend factory must produce backends that
// export pages (attention.PrefixBackend).
func newPrefixTier(cfg Config) (*prefixTier, error) {
	probe, err := cfg.Backend(0)
	if err != nil {
		return nil, fmt.Errorf("serve: prefix cache backend probe: %w", err)
	}
	pb, ok := probe.(attention.PrefixBackend)
	if !ok {
		return nil, fmt.Errorf("serve: prefix cache requires an attention backend that exports pages; %s does not", probe.Name())
	}
	pi, kvBits, err := pb.PrefixLayout()
	if err != nil {
		return nil, fmt.Errorf("serve: prefix cache: %w", err)
	}
	bpt := prefixBytesPerToken(cfg.Spec, pi, kvBits)
	be, err := NewPrefixCache(cfg.PrefixCacheBytes, pi, pi, bpt)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return &prefixTier{backend: be, pageTokens: pi}, nil
}

// insertable returns the block-aligned token count of prompt that may
// be cached: the last prompt position is never cached (its logits are
// what prefill produces, so at least one suffix token must remain to
// resume over).
func (t *prefixTier) insertable(promptLen int) int {
	return ((promptLen - 1) / t.pageTokens) * t.pageTokens
}

// tryPrefixPrefill attempts the warm path for one request: look up the
// longest cached prefix, restore its pages into a fresh session, and
// resume prefill over the remaining suffix. It reports (firstToken,
// true) on success. Any tier failure is counted and absorbed — the
// caller falls back to a cold prefill, so a degraded tier can never
// fail a request.
func (s *Server) tryPrefixPrefill(a *active, backend attention.Backend) (int, bool) {
	t := s.prefix
	max := t.insertable(len(a.req.Prompt))
	if max <= 0 {
		return 0, false
	}
	match, err := t.backend.Lookup(a.req.Seed, a.req.Prompt, max)
	if err != nil {
		s.rec.prefixErrors.Add(1)
		return 0, false
	}
	if match == nil || match.Tokens <= 0 {
		return 0, false
	}
	defer match.Release()
	sess, err := s.restorePrefixSession(backend, match)
	var tok int
	if err == nil {
		tok, err = sess.ResumePrefill(a.req.Prompt, match.Tokens)
	}
	if err != nil {
		s.rec.prefixErrors.Add(1)
		return 0, false
	}
	a.sess = sess
	// Extend the cached prefix past the matched blocks (the index
	// builds only the blocks it is missing).
	s.insertPrefix(a)
	return tok, true
}

// restorePrefixSession rebuilds a session whose first match.Tokens
// prompt positions are already quantized: each block's frames are
// decoded and concatenated per (layer, head), then restored into
// attention heads.
func (s *Server) restorePrefixSession(backend attention.Backend, match *PrefixMatch) (*model.Session, error) {
	pb, ok := backend.(attention.PrefixBackend)
	if !ok {
		return nil, fmt.Errorf("serve: backend %s cannot restore prefix pages", backend.Name())
	}
	spec := s.cfg.Spec
	type cell struct{ k, v *quant.Tensor }
	grid := make([][]cell, spec.Layers)
	for l := range grid {
		grid[l] = make([]cell, spec.Heads)
	}
	for bi, blk := range match.Blocks {
		if len(blk) != spec.Layers*spec.Heads {
			return nil, fmt.Errorf("serve: prefix block %d carries %d frames, want %d",
				bi, len(blk), spec.Layers*spec.Heads)
		}
		for _, f := range blk {
			l, h := int(f.Layer), int(f.Head)
			if l >= spec.Layers || h >= spec.Heads {
				return nil, fmt.Errorf("serve: prefix frame for (layer %d, head %d) outside %d×%d",
					l, h, spec.Layers, spec.Heads)
			}
			k, v, tail, err := f.Tensors()
			if err != nil {
				return nil, err
			}
			if tail.Rows != 0 {
				return nil, fmt.Errorf("serve: prefix page with a %d-row FP16 tail", tail.Rows)
			}
			c := &grid[l][h]
			if c.k == nil {
				c.k, c.v = k, v
				continue
			}
			if err := c.k.AppendRows(k); err != nil {
				return nil, err
			}
			if err := c.v.AppendRowBlocks(v); err != nil {
				return nil, err
			}
		}
	}
	heads := make([][]attention.Head, spec.Layers)
	for l := range heads {
		row := make([]attention.Head, spec.Heads)
		for h := range row {
			c := grid[l][h]
			if c.k == nil || c.k.Rows != match.Tokens {
				rows := 0
				if c.k != nil {
					rows = c.k.Rows
				}
				return nil, fmt.Errorf("serve: prefix pages cover %d of %d tokens for (layer %d, head %d)",
					rows, match.Tokens, l, h)
			}
			hd, err := pb.RestorePrefixHead(spec.HeadDim, c.k, c.v)
			if err != nil {
				return nil, err
			}
			row[h] = hd
		}
		heads[l] = row
	}
	return s.m.RestoreSession(backend, heads)
}

// insertPrefix offers a freshly prefilled (or resumed) session's pages
// to the tier. The build callback exports each missing block's
// Π-aligned page span from every head; failures are counted, never
// propagated to the request.
func (s *Server) insertPrefix(a *active) {
	t := s.prefix
	if t == nil || a.sess == nil {
		return
	}
	upTo := t.insertable(len(a.req.Prompt))
	if upTo <= 0 {
		return
	}
	spec := s.cfg.Spec
	_, err := t.backend.Insert(a.req.Seed, a.req.Prompt, upTo, func(lo, hi int) ([]*netsim.KVFrame, error) {
		frames := make([]*netsim.KVFrame, 0, spec.Layers*spec.Heads)
		for l := 0; l < spec.Layers; l++ {
			for h := 0; h < spec.Heads; h++ {
				exp, ok := a.sess.Head(l, h).(attention.PrefixPageExporter)
				if !ok {
					return nil, fmt.Errorf("serve: head (%d,%d) cannot export prefix pages", l, h)
				}
				k, v, err := exp.ExportPrefixPages(lo, hi)
				if err != nil {
					return nil, err
				}
				// RequestID carries the block's start token index so
				// every receiver can place the page without context.
				f, err := netsim.FrameFromTensors(uint64(lo), l, h, 0, k, v, nil)
				if err != nil {
					return nil, err
				}
				frames = append(frames, f)
			}
		}
		return frames, nil
	})
	if err != nil {
		s.rec.prefixErrors.Add(1)
	}
}
