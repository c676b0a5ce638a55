package tensor

// Softmax applies the row-wise softmax of Eq. (3) in place and returns m.
// Each row is shifted by its maximum before exponentiation for numerical
// stability, matching production attention kernels.
func Softmax(m *Matrix) *Matrix {
	for i := 0; i < m.Rows; i++ {
		softmaxRow(m.Row(i))
	}
	return m
}

// CausalSoftmax is the causal attention softmax of a score matrix whose
// row i is query position offset+i over key positions 0..m.Cols-1: it
// multiplies row i's live prefix — columns 0..i+offset — by scale,
// softmaxes it, and sets every column past it to 0. The result is
// bit-identical to scaling the whole matrix, masking the future with
// −∞ and applying Softmax (a masked exp is an exact 0, and adding 0 to
// the row sum changes nothing), without touching the masked half. It
// returns m.
func CausalSoftmax(m *Matrix, offset int, scale float32) *Matrix {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		live := row[:LiveCols(i, offset, m.Cols)]
		scaleRow(live, scale)
		softmaxRow(live)
		clear(row[len(live):])
	}
	return m
}

// LiveCols returns how many of n key columns query row i of a causal
// product attends: the columns 0..i+offset, capped at n. A negative
// offset means no mask (a decode step attends to everything).
func LiveCols(i, offset, n int) int {
	if offset < 0 || i+offset+1 > n {
		return n
	}
	return i + offset + 1
}

// softmaxRow applies the max-shifted softmax to one row in place: the
// maximum (NaN skipped), each exp(v − max) rounded to float32 and added
// to the row sum as one float32 chain in column order, then each exp
// times 1/sum. Where the CPU has vector lanes the three passes run on
// them with the scalar loop's exact roundings; only the sum stays a
// serial chain.
func softmaxRow(row []float32) {
	sum := expSum(row, rowMax(row))
	if sum == 0 {
		return
	}
	scaleRow(row, 1/sum)
}

// SiLU applies x·σ(x) to every element of m in place, as
// v / float32(1+exp(−v)) with Exp, and returns m.
func SiLU(m *Matrix) *Matrix {
	silu(m.Data)
	return m
}
