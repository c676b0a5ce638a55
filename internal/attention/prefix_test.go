package attention

import (
	"testing"

	"github.com/hackkv/hack/internal/tensor"
)

func prefixCfg(seed int64) HACKConfig {
	cfg := DefaultHACKConfig(seed)
	cfg.Pi = 8 // small Π keeps multi-block scenarios cheap
	return cfg
}

func slice(m *tensor.Matrix, lo, hi int) *tensor.Matrix {
	out := tensor.New(hi-lo, m.Cols)
	for i := lo; i < hi; i++ {
		copy(out.Row(i-lo), m.Row(i))
	}
	return out
}

func mustEqual(t *testing.T, tag string, a, b *tensor.Matrix) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", tag, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("%s: element %d diverged: %v vs %v", tag, i, a.Data[i], b.Data[i])
		}
	}
}

// TestPrefixWarmColdByteIdentity is the tentpole property end to end at
// the head level: export Π-aligned pages from one head, restore them
// into a fresh head, resume the prefill over the remaining suffix —
// every attention output for the suffix rows and every subsequent
// decode step must be bit-identical to a cold head that prefilled the
// whole prompt itself.
func TestPrefixWarmColdByteIdentity(t *testing.T) {
	const total, cached = 21, 16 // cached is a Π multiple; 5 suffix rows
	b, err := NewHACK(prefixCfg(99))
	if err != nil {
		t.Fatal(err)
	}
	q, k, v := randQKV(5, total)

	cold, err := b.NewHead(dh)
	if err != nil {
		t.Fatal(err)
	}
	coldOut, _, err := cold.Prefill(q.Clone(), k.Clone(), v.Clone())
	if err != nil {
		t.Fatal(err)
	}
	coldSuffix := slice(coldOut, cached, total)

	// A second cold head (same seed) donates the pages, exporting in
	// two spans to exercise multi-block assembly downstream.
	donor, err := b.NewHead(dh)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := donor.Prefill(q.Clone(), k.Clone(), v.Clone()); err != nil {
		t.Fatal(err)
	}
	exp := donor.(PrefixPageExporter)
	k1, v1, err := exp.ExportPrefixPages(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	k2, v2, err := exp.ExportPrefixPages(8, cached)
	if err != nil {
		t.Fatal(err)
	}
	if err := k1.AppendRows(k2); err != nil {
		t.Fatal(err)
	}
	if err := v1.AppendRowBlocks(v2); err != nil {
		t.Fatal(err)
	}

	warm, err := b.RestorePrefixHead(dh, k1, v1)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Len() != cached {
		t.Fatalf("restored head holds %d tokens, want %d", warm.Len(), cached)
	}
	warmOut, _, err := warm.Prefill(
		slice(q, cached, total), slice(k, cached, total), slice(v, cached, total))
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, "resumed suffix", warmOut, coldSuffix)

	// Decode steps must stay locked together.
	for step := 0; step < 6; step++ {
		dq, dk, dv := randQKV(int64(1000+step), 1)
		co, _, err := cold.Decode(dq.Clone(), dk.Clone(), dv.Clone())
		if err != nil {
			t.Fatal(err)
		}
		wo, _, err := warm.Decode(dq, dk, dv)
		if err != nil {
			t.Fatal(err)
		}
		mustEqual(t, "decode step", wo, co)
		if warm.Len() != cold.Len() {
			t.Fatalf("length diverged: %d vs %d", warm.Len(), cold.Len())
		}
	}
}

// TestPrefixSeedIsolation checks that pages are seed-specific: a head
// restored under a different seed produces different outputs than the
// donor's cold path (the serving tier namespaces its index by seed for
// exactly this reason).
func TestPrefixSeedIsolation(t *testing.T) {
	const total, cached = 20, 16
	q, k, v := randQKV(6, total)
	run := func(seed int64) *tensor.Matrix {
		b, err := NewHACK(prefixCfg(seed))
		if err != nil {
			t.Fatal(err)
		}
		h, err := b.NewHead(dh)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := h.Prefill(q.Clone(), k.Clone(), v.Clone())
		if err != nil {
			t.Fatal(err)
		}
		return out.Clone()
	}
	a, b := run(1), run(2)
	same := true
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical stochastic outputs")
	}
}

// TestPrefixGates pins the boundaries of the one page format: heads
// whose cache cannot move (the quantized-tail ablation) offer
// no prefix layout and refuse export and restore; every other head
// exports pages and wire caches alike — including a head that was
// itself restored from pages and resumed — and a restored head refuses
// a cache shipped with an RNG draw count.
func TestPrefixGates(t *testing.T) {
	for name, mut := range map[string]func(*HACKConfig){
		"no RQE": func(c *HACKConfig) { c.RequantizationElimination = false },
	} {
		cfg := prefixCfg(1)
		mut(&cfg)
		b, err := NewHACK(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := b.PrefixLayout(); err == nil {
			t.Errorf("%s: backend advertised a prefix layout", name)
		}
		h, err := b.NewHead(dh)
		if err != nil {
			t.Fatal(err)
		}
		q, k, v := randQKV(7, 16)
		if _, _, err := h.Prefill(q, k, v); err != nil {
			t.Fatal(err)
		}
		if _, _, err := h.(PrefixPageExporter).ExportPrefixPages(0, 8); err == nil {
			t.Errorf("%s: head exported prefix pages", name)
		}
		if _, _, _, _, err := h.(WireExporter).ExportWire(); err == nil {
			t.Errorf("%s: head exported its wire cache", name)
		}
	}

	pb, err := NewHACK(prefixCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if pi, _, err := pb.PrefixLayout(); err != nil || pi != 8 {
		t.Fatalf("PrefixLayout = %d, %v", pi, err)
	}
	h, err := pb.NewHead(dh)
	if err != nil {
		t.Fatal(err)
	}
	q, k, v := randQKV(7, 20)
	if _, _, err := h.Prefill(slice(q, 0, 16), slice(k, 0, 16), slice(v, 0, 16)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.(PrefixPageExporter).ExportPrefixPages(3, 11); err == nil {
		t.Fatal("misaligned page span exported")
	}
	if _, err := pb.RestorePrefixHead(dh, nil, nil); err == nil {
		t.Fatal("nil pages restored")
	}
	pk, pv, err := h.(PrefixPageExporter).ExportPrefixPages(0, 16)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := pb.RestorePrefixHead(dh, pk, pv)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := warm.Prefill(slice(q, 16, 20), slice(k, 16, 20), slice(v, 16, 20)); err != nil {
		t.Fatal(err)
	}
	wk, wv, tail, draws, err := warm.(WireExporter).ExportWire()
	if err != nil {
		t.Fatalf("prefix-restored, resumed head refused wire export: %v", err)
	}
	if draws != 0 || wk.Rows != 20 || wv.Rows != 16 || tail.Rows != 4 {
		t.Fatalf("wire export: K %d rows, V %d, tail %d, %d draws", wk.Rows, wv.Rows, tail.Rows, draws)
	}
	if _, err := pb.RestoreHead(dh, wk, wv, tail, 1); err == nil {
		t.Fatal("restored a cache shipped with an RNG draw count")
	}
	if _, err := pb.RestoreHead(dh, wk, wv, tail, 0); err != nil {
		t.Fatal(err)
	}
}
