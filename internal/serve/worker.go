package serve

import (
	"context"
	"errors"
	"time"
)

// runPrefill is one prefill worker. Every worker pulls from the one
// shared admission queue in arrival order, so an idle worker always
// takes the next request and a busy one never holds work back. For each
// request it builds the per-request backend and session, runs the real
// prefill kernel over the prompt, streams the first token, and hands
// the session to the decode batcher. The loop exits when Shutdown
// closes the queue and the remaining entries have drained.
func (s *Server) runPrefill() {
	defer s.prefillWG.Done()
	for a := range s.queue {
		s.prefillOne(a)
	}
}

// prefillOne runs one request's prefill and either seals its stream (on
// cancellation or error) or forwards it to the decode batcher.
func (s *Server) prefillOne(a *active) {
	if err := a.ctx.Err(); err != nil {
		s.rec.canceled.Add(1)
		a.stream.finish(err)
		return
	}
	if s.forced() {
		s.rec.canceled.Add(1)
		a.stream.finish(ErrDrained)
		return
	}
	a.started = time.Now()
	s.rec.queueDelay(a.started.Sub(a.submitted).Seconds())

	backend, err := s.backend(a.req.Seed)
	var tok int
	var warm bool
	if err == nil && s.prefix != nil {
		// Warm path: restore the longest cached prompt prefix and
		// resume prefill over the suffix only. Tier failures fall
		// through to the cold path below.
		tok, warm = s.tryPrefixPrefill(a, backend)
	}
	if err == nil && !warm {
		a.sess, err = s.m.NewSession(backend)
		if err == nil {
			tok, err = a.sess.Prefill(a.req.Prompt)
		}
		if err == nil {
			s.insertPrefix(a)
		}
	}
	if err != nil {
		s.rec.failed.Add(1)
		a.stream.finish(err)
		return
	}
	a.emit(tok, &s.rec)
	s.rec.ttft(time.Since(a.submitted).Seconds())
	if a.n >= a.maxNew || (a.req.EOS > 0 && tok == a.req.EOS) {
		s.finishRequest(a, nil)
		return
	}
	// Hand off to the decode batcher. The admit channel applies
	// backpressure: when the decode side is saturated, prefill blocks
	// here (and its queue fills behind it) until batch slots free up.
	s.admit <- a
}

// finishRequest seals a completed or aborted request's stream and
// records its terminal metrics.
func (s *Server) finishRequest(a *active, err error) {
	switch {
	case err == nil:
		s.rec.completed.Add(1)
		if a.n >= 2 {
			// Mean time between tokens over the decode phase.
			s.rec.tbt(a.lastTok.Sub(a.first).Seconds() / float64(a.n-1))
		}
	case errors.Is(err, ErrDrained), errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		s.rec.canceled.Add(1)
	default:
		s.rec.failed.Add(1)
	}
	a.stream.finish(err)
}
