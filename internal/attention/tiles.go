package attention

import (
	"cmp"
	"sync"
	"sync/atomic"

	"github.com/hackkv/hack/internal/quant"
	"github.com/hackkv/hack/internal/tensor"
)

// tileRows is the query-row height of a prefill tile. A fixed height
// makes a prompt's tiles the same at every worker count, and keeps the
// causal triangle balanced without a balancer: workers pull the next
// tile as they finish, so the short rows at the top and the long rows at
// the bottom spread by themselves. It is a variable only so that tests
// can run a prefill as one block, the reference every tiling must match.
var tileRows = 64

// scratch holds the working buffers of one attention call over a block
// of query rows. A head keeps one for its decode steps and for prefills
// of at most tileRows rows; every tile of a longer prefill draws its own
// from scratchPool, so no buffer grows with the square of the prompt: the
// score tile is tileRows × context.
type scratch struct {
	qr, s                 tensor.Matrix // query rows rounded through FP16; scores, then probabilities
	qq, pq                *quant.Tensor // HACK: quantized Q rows and P rows
	pvOut, pTail, tailOut tensor.Matrix // HACK: P·V over the quantized span, P's tail columns, their product
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// tileAttender is a head's prefill body over one block of query rows.
type tileAttender interface {
	// attendTile writes the causal attention of the query rows q into
	// out (q.Rows × d_h, already shaped; its old contents are zeroed
	// before anything accumulates into them, so callers Reshape rather
	// than Reset it): q's row i attends cached key
	// positions 0..off+i. Every step is row-local and every quantizer
	// draw is keyed by absolute position, so a row's output does not
	// depend on the block it is computed in. kernelPar is the
	// Parallelism the block's homomorphic products may use.
	attendTile(sc *scratch, q, out *tensor.Matrix, off, kernelPar int) (Stats, error)
}

// prefillTiles runs a prefill's attention over its query rows q, the
// first of which attends keys 0..off, into out. A prefill of at most
// tileRows rows is one call on own, the head's scratch, with its kernels
// at kernelPar, the path a decode step takes. A longer one is cut into
// tileRows-row tiles that up to min(workers, tiles) goroutines pull from
// a shared counter, each tile on a pooled scratch with serial kernels, so
// there is one fan-out level. The output and the summed Stats are
// bit-identical at every worker count.
func prefillTiles(h tileAttender, own *scratch, q, out *tensor.Matrix, off, workers, kernelPar int) (Stats, error) {
	if q.Rows <= tileRows {
		return h.attendTile(own, q, out, off, kernelPar)
	}
	tiles := (q.Rows + tileRows - 1) / tileRows
	var (
		next  atomic.Int64
		mu    sync.Mutex
		total Stats
		err   error
		wg    sync.WaitGroup
	)
	run := func() {
		defer wg.Done()
		sc := scratchPool.Get().(*scratch)
		defer scratchPool.Put(sc)
		var st Stats
		var tileErr error
		for t := int(next.Add(1) - 1); t < tiles; t = int(next.Add(1) - 1) {
			lo, hi := t*tileRows, min((t+1)*tileRows, q.Rows)
			ts, e := h.attendTile(sc, q.SliceRows(lo, hi), out.SliceRows(lo, hi), off+lo, 1)
			st.Add(ts)
			tileErr = cmp.Or(tileErr, e)
		}
		mu.Lock()
		total.Add(st)
		err = cmp.Or(err, tileErr)
		mu.Unlock()
	}
	workers = max(1, min(workers, tiles))
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go run()
	}
	run()
	wg.Wait()
	return total, err
}
