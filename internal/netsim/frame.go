// Package netsim provides the networking substrate of the disaggregated
// deployment: a byte-accurate wire format for shipping quantized KV
// state between prefill and decode instances (the role NCCL plays in the
// paper, §6), and a processor-sharing link model that the discrete-event
// simulator uses to price concurrent transfers.
//
// The framing codec is real — it serializes actual quantized tensors and
// round-trips over any io stream (tests drive it through net.Pipe) — so
// the byte counts fed to the transfer model are measured, not assumed.
package netsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"github.com/hackkv/hack/internal/fp16"
	"github.com/hackkv/hack/internal/quant"
	"github.com/hackkv/hack/internal/tensor"
)

// Frame magic and version for the KV transfer protocol. The handshake
// refuses peers at any other wire version, so frameVersion is the only
// layout that can arrive; a frame head carrying another version is
// corrupt.
const (
	frameMagic   = 0x48414B56 // "HAKV"
	frameVersion = 2
	// maxFrameSize bounds a single frame's payload (1 GiB) to fail fast
	// on corrupted length fields.
	maxFrameSize = 1 << 30
)

// KVFrame is one head's prefill→decode payload (⑦ in Fig. 5): the
// quantized codes, the FP16 min/scale metadata, the first generated
// token, and the RQE FP16 tail.
type KVFrame struct {
	// RequestID and Layer/Head locate the payload.
	RequestID   uint64
	Layer, Head uint16
	// FirstToken is the prefill-stage output token.
	FirstToken uint32
	// RNGDraws is a header field that position-keyed rounding leaves at
	// zero: the quantizer keeps no stream state to replay, and
	// RestoreHead refuses a non-zero count. It round-trips unchanged.
	RNGDraws uint64
	// Bits and Pi describe the quantization layout; Rows/Cols the K
	// shape (token-major).
	Bits, Pi    uint8
	KRows, Cols uint32
	// KCodes and VCodes are bit-packed quantized payloads; VRows counts
	// the quantized V rows.
	KCodes, VCodes []byte
	VRows          uint32
	// KMin/KScale/VMin/VScale are FP16-encoded metadata.
	KMin, KScale, VMin, VScale []fp16.Bits
	// Tail is the FP16 V tail (RQE), row-major, TailRows × Cols.
	TailRows uint32
	Tail     []fp16.Bits
}

func fp16Bytes(xs []fp16.Bits) []byte {
	b := make([]byte, 2*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint16(b[2*i:], uint16(x))
	}
	return b
}

func fp16FromBytes(b []byte) ([]fp16.Bits, error) {
	if len(b)%2 != 0 {
		return nil, errors.New("netsim: odd fp16 payload")
	}
	out := make([]fp16.Bits, len(b)/2)
	for i := range out {
		out[i] = fp16.Bits(binary.LittleEndian.Uint16(b[2*i:]))
	}
	return out, nil
}

// WriteTo serializes the frame with a CRC32 trailer. It returns the
// number of payload bytes written (the wire size the transfer model
// prices).
func (f *KVFrame) WriteTo(w io.Writer) (int64, error) {
	var body []byte
	{
		hdr := make([]byte, 0, 64)
		tmp := make([]byte, 8)
		put32 := func(v uint32) {
			binary.LittleEndian.PutUint32(tmp, v)
			hdr = append(hdr, tmp[:4]...)
		}
		binary.LittleEndian.PutUint64(tmp, f.RequestID)
		hdr = append(hdr, tmp[:8]...)
		binary.LittleEndian.PutUint16(tmp, f.Layer)
		hdr = append(hdr, tmp[:2]...)
		binary.LittleEndian.PutUint16(tmp, f.Head)
		hdr = append(hdr, tmp[:2]...)
		put32(f.FirstToken)
		hdr = append(hdr, f.Bits, f.Pi)
		put32(f.KRows)
		put32(f.Cols)
		put32(f.VRows)
		put32(f.TailRows)
		binary.LittleEndian.PutUint64(tmp, f.RNGDraws)
		hdr = append(hdr, tmp[:8]...)
		body = hdr
	}
	for _, chunk := range [][]byte{
		f.KCodes, f.VCodes,
		fp16Bytes(f.KMin), fp16Bytes(f.KScale),
		fp16Bytes(f.VMin), fp16Bytes(f.VScale),
		fp16Bytes(f.Tail),
	} {
		var lenBuf [4]byte
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(chunk)))
		body = append(body, lenBuf[:]...)
		body = append(body, chunk...)
	}

	var head [12]byte
	binary.LittleEndian.PutUint32(head[0:], frameMagic)
	binary.LittleEndian.PutUint32(head[4:], frameVersion)
	binary.LittleEndian.PutUint32(head[8:], uint32(len(body)))
	if _, err := w.Write(head[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(body); err != nil {
		return 0, err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
	if _, err := w.Write(crc[:]); err != nil {
		return 0, err
	}
	return int64(len(head) + len(body) + 4), nil
}

// ErrFrameCorrupt means a frame or message header failed to parse: a KV
// frame's 12-byte head (bad magic, unknown version, a length past the
// limit) or a wire message's 5-byte head (invalid type byte, oversized
// length). Headers are partly or wholly outside the CRC, so a bit-flip
// there surfaces here instead of as ErrChecksum; it is the same fault
// (the link is corrupting bytes) and callers must treat it the same
// way: drop the connection, retry over a fresh one.
var ErrFrameCorrupt = errors.New("netsim: frame header corrupt")

// ReadFrom parses one frame, verifying magic, version and checksum.
// Head-parse failures, a version other than frameVersion among them,
// wrap ErrFrameCorrupt; a body CRC mismatch wraps ErrChecksum.
func (f *KVFrame) ReadFrom(r io.Reader) (int64, error) {
	var head [12]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, err
	}
	if binary.LittleEndian.Uint32(head[0:]) != frameMagic {
		return 0, fmt.Errorf("%w: bad magic %#x", ErrFrameCorrupt, binary.LittleEndian.Uint32(head[0:]))
	}
	version := binary.LittleEndian.Uint32(head[4:])
	if version != frameVersion {
		return 0, fmt.Errorf("%w: unsupported version %d", ErrFrameCorrupt, version)
	}
	n := binary.LittleEndian.Uint32(head[8:])
	if n > maxFrameSize {
		return 0, fmt.Errorf("%w: frame length %d exceeds limit", ErrFrameCorrupt, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, err
	}
	var crc [4]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return 0, err
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crc[:]) {
		return 0, fmt.Errorf("netsim: frame body: %w", ErrChecksum)
	}

	if len(body) < 42 {
		return 0, errors.New("netsim: truncated header")
	}
	f.RequestID = binary.LittleEndian.Uint64(body[0:])
	f.Layer = binary.LittleEndian.Uint16(body[8:])
	f.Head = binary.LittleEndian.Uint16(body[10:])
	f.FirstToken = binary.LittleEndian.Uint32(body[12:])
	f.Bits = body[16]
	f.Pi = body[17]
	f.KRows = binary.LittleEndian.Uint32(body[18:])
	f.Cols = binary.LittleEndian.Uint32(body[22:])
	f.VRows = binary.LittleEndian.Uint32(body[26:])
	f.TailRows = binary.LittleEndian.Uint32(body[30:])
	f.RNGDraws = binary.LittleEndian.Uint64(body[34:])
	rest := body[42:]
	chunks := make([][]byte, 7)
	for i := range chunks {
		if len(rest) < 4 {
			return 0, errors.New("netsim: truncated chunk table")
		}
		cl := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if uint32(len(rest)) < cl {
			return 0, errors.New("netsim: truncated chunk")
		}
		chunks[i] = rest[:cl]
		rest = rest[cl:]
	}
	var err error
	f.KCodes = append([]byte(nil), chunks[0]...)
	f.VCodes = append([]byte(nil), chunks[1]...)
	if f.KMin, err = fp16FromBytes(chunks[2]); err != nil {
		return 0, err
	}
	if f.KScale, err = fp16FromBytes(chunks[3]); err != nil {
		return 0, err
	}
	if f.VMin, err = fp16FromBytes(chunks[4]); err != nil {
		return 0, err
	}
	if f.VScale, err = fp16FromBytes(chunks[5]); err != nil {
		return 0, err
	}
	if f.Tail, err = fp16FromBytes(chunks[6]); err != nil {
		return 0, err
	}
	return int64(12 + len(body) + 4), nil
}

// FrameFromTensors builds a frame from a head's quantized K and V plus
// the FP16 tail values.
func FrameFromTensors(reqID uint64, layer, head int, firstToken int,
	k, v *quant.Tensor, tail []float32) (*KVFrame, error) {
	if k.Bits != v.Bits || k.Pi != v.Pi || k.Cols != v.Cols {
		return nil, fmt.Errorf("netsim: K/V layout mismatch")
	}
	if k.Bits > math.MaxUint8 || k.Pi > math.MaxUint8 {
		return nil, fmt.Errorf("netsim: layout fields overflow")
	}
	toFP16 := func(xs []float32) []fp16.Bits { return fp16.FromFloat32Slice(nil, xs) }
	f := &KVFrame{
		RequestID: reqID, Layer: uint16(layer), Head: uint16(head),
		FirstToken: uint32(firstToken),
		Bits:       uint8(k.Bits), Pi: uint8(k.Pi),
		KRows: uint32(k.Rows), Cols: uint32(k.Cols), VRows: uint32(v.Rows),
		KCodes: k.PackCodes(), VCodes: v.PackCodes(),
		KMin: toFP16(k.Min), KScale: toFP16(k.Scale),
		VMin: toFP16(v.Min), VScale: toFP16(v.Scale),
	}
	if len(tail) > 0 {
		if len(tail)%k.Cols != 0 {
			return nil, fmt.Errorf("netsim: tail length %d not a multiple of d_h %d", len(tail), k.Cols)
		}
		f.TailRows = uint32(len(tail) / k.Cols)
		f.Tail = toFP16(tail)
	}
	return f, nil
}

// Tensors reconstructs the decode-side cache contents from a received
// frame: the quantized K (token-major) and V (complete partitions only)
// with their SE sums recomputed from the codes, plus the FP16 RQE tail.
// Every shape comes off the wire, so all of them are validated.
func (f *KVFrame) Tensors() (k, v *quant.Tensor, tail *tensor.Matrix, err error) {
	dh := int(f.Cols)
	if dh <= 0 {
		return nil, nil, nil, fmt.Errorf("netsim: frame head dim %d", dh)
	}
	k, err = quant.FromWire(quant.AlongCols, int(f.KRows), dh, int(f.Bits), int(f.Pi),
		f.KCodes, fp16.ToFloat32Slice(nil, f.KMin), fp16.ToFloat32Slice(nil, f.KScale))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("netsim: frame K: %w", err)
	}
	v, err = quant.FromWire(quant.AlongRows, int(f.VRows), dh, int(f.Bits), int(f.Pi),
		f.VCodes, fp16.ToFloat32Slice(nil, f.VMin), fp16.ToFloat32Slice(nil, f.VScale))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("netsim: frame V: %w", err)
	}
	if int(f.TailRows)*dh != len(f.Tail) {
		return nil, nil, nil, fmt.Errorf("netsim: frame tail %d values for %d rows of %d",
			len(f.Tail), f.TailRows, dh)
	}
	tail = tensor.New(int(f.TailRows), dh)
	copy(tail.Data, fp16.ToFloat32Slice(nil, f.Tail))
	if int(f.VRows)+tail.Rows != int(f.KRows) {
		return nil, nil, nil, fmt.Errorf("netsim: frame token counts K %d vs V %d+%d",
			f.KRows, f.VRows, f.TailRows)
	}
	return k, v, tail, nil
}
