package attention

import (
	"fmt"

	"github.com/hackkv/hack/internal/quant"
	"github.com/hackkv/hack/internal/tensor"
)

// This file is the shared-prefix face of the HACK head: a quantized
// Π-aligned KV page is a position-addressable artifact, so a page
// produced while serving one request restores bit-identically into
// another request over the same prompt prefix and seed — whatever the
// two prompts' lengths. That holds by construction of the rounding
// layout (quant.StochasticRounding): every draw is a pure function of
// (seed, operand, absolute position), so the cold path quantizes the
// prefix rows exactly as the donor did, and a restored head resumes with
// no stream state to fast-forward. Pages are the same K/V tensors the
// disaggregated wire ships (ExportWire / RestoreHead), cut at partition
// boundaries and without the FP16 tail.

// PrefixBackend is implemented by attention backends whose heads
// support the shared-prefix page discipline.
type PrefixBackend interface {
	Backend
	// PrefixLayout reports the page-relevant quantization geometry
	// (partition size Π, KV code width), or an error when the backend's
	// heads cannot hand their cache over (the HACK/RQE ablation, KV
	// eviction).
	PrefixLayout() (pi, kvBits int, err error)
	// RestorePrefixHead rebuilds a head over cached pages: quantized K
	// and V covering the same Π-aligned token count, with no FP16
	// tail. A subsequent Prefill over the prompt's remaining rows and
	// the Decodes after it are bit-identical to a head that prefilled
	// the whole prompt itself.
	RestorePrefixHead(headDim int, k, v *quant.Tensor) (Head, error)
}

// PrefixPageExporter is implemented by heads whose Π-aligned cache
// spans can be copied out as shareable pages.
type PrefixPageExporter interface {
	// ExportPrefixPages deep-copies quantized K and V rows [lo, hi) —
	// both bounds Π-aligned, hi within the fully-quantized span — as
	// standalone tensors safe to cache beyond the head's lifetime.
	ExportPrefixPages(lo, hi int) (k, v *quant.Tensor, err error)
}

// PrefixLayout implements PrefixBackend.
func (b *HACKBackend) PrefixLayout() (int, int, error) {
	if err := b.cfg.transferable(); err != nil {
		return 0, 0, err
	}
	return b.cfg.Pi, b.cfg.KVBits, nil
}

// RestorePrefixHead implements PrefixBackend: pages are a shipped
// cache without an FP16 tail.
func (b *HACKBackend) RestorePrefixHead(headDim int, k, v *quant.Tensor) (Head, error) {
	return b.RestoreHead(headDim, k, v, tensor.New(0, headDim), 0)
}

// ExportPrefixPages implements PrefixPageExporter.
func (h *hackHead) ExportPrefixPages(lo, hi int) (*quant.Tensor, *quant.Tensor, error) {
	if err := h.cfg.transferable(); err != nil {
		return nil, nil, err
	}
	if lo < 0 || hi <= lo || hi > h.c.VFull.Rows || lo%h.cfg.Pi != 0 || hi%h.cfg.Pi != 0 {
		return nil, nil, fmt.Errorf("attention: page span [%d,%d) of %d quantized rows (Π=%d)",
			lo, hi, h.c.VFull.Rows, h.cfg.Pi)
	}
	k, err := h.c.K.SliceRows(lo, hi)
	if err != nil {
		return nil, nil, err
	}
	v, err := h.c.VFull.SliceRows(lo, hi)
	if err != nil {
		return nil, nil, err
	}
	return k, v, nil
}
