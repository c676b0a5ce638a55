package serve

import (
	"github.com/hackkv/hack/internal/sweeprun"
)

// runBatcher is the continuous-batching decode loop. Every iteration it
// re-forms the batch — pulling newly prefilled sessions from the admit
// channel up to MaxBatch — then advances every active request by one
// token through the real decode kernels, and retires the requests that
// finished. Sessions are independent, so the step fans out across
// DecodeParallelism goroutines without changing any stream's bytes.
func (s *Server) runBatcher() {
	// The batcher is the last goroutine standing (the admit channel only
	// closes after every prefill worker has exited), so its exit marks
	// the runtime fully drained.
	defer close(s.done)
	defer s.batchWG.Done()
	var batch []*active
	admitOpen := true
	for {
		// Re-form the batch: admit without blocking while slots remain.
		for admitOpen && len(batch) < s.cfg.MaxBatch {
			select {
			case a, ok := <-s.admit:
				if !ok {
					admitOpen = false
				} else {
					batch = append(batch, a)
				}
			default:
				goto formed
			}
		}
	formed:
		if len(batch) == 0 {
			if !admitOpen {
				return
			}
			// Idle: block until the next prefilled session (or drain).
			a, ok := <-s.admit
			if !ok {
				admitOpen = false
				continue
			}
			batch = append(batch, a)
			continue
		}

		s.rec.step(len(batch))
		s.stepBatch(batch)

		// Track the decode batch's resident KV-cache footprint (the live
		// counterpart of the simulator's peak-memory fraction).
		var kv int64
		for _, a := range batch {
			kv += int64(a.sess.CacheUsageTotal())
		}
		s.rec.kv(kv)

		// Retire finished requests, preserving admission order for the
		// survivors so single-worker mode is reproducible.
		live := batch[:0]
		for _, a := range batch {
			if a.done {
				s.finishRequest(a, a.err)
			} else {
				live = append(live, a)
			}
		}
		for i := len(live); i < len(batch); i++ {
			batch[i] = nil
		}
		batch = live
	}
}

// stepBatch advances every request one decode step. Each session owns
// its KV caches and quantizer keys, so steps are independent and the
// fan-out is free of cross-request effects.
func (s *Server) stepBatch(batch []*active) {
	workers := s.cfg.DecodeParallelism
	if workers == 0 || workers > len(batch) {
		workers = len(batch)
	}
	sweeprun.ParallelFor(len(batch), workers, func(lo, hi int) {
		for _, a := range batch[lo:hi] {
			s.stepOne(a)
		}
	})
}

// stepOne advances one request by one token, marking it done when its
// budget, stop token, context, or a forced drain ends it.
func (s *Server) stepOne(a *active) {
	if err := a.ctx.Err(); err != nil {
		a.done, a.err = true, err
		return
	}
	if s.forced() {
		a.done, a.err = true, ErrDrained
		return
	}
	tok, err := a.sess.Decode(a.last)
	if err != nil {
		a.done, a.err = true, err
		return
	}
	a.emit(tok, &s.rec)
	if a.n >= a.maxNew || (a.req.EOS > 0 && tok == a.req.EOS) {
		a.done = true
	}
}
