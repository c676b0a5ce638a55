package serve

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"time"

	"github.com/hackkv/hack/internal/sim"
)

// prefillWorker is one prefill goroutine's admission queue plus the
// load counters the router scores. queuedToks/queuedReqs count waiting
// work; inflightToks is the prompt currently being prefilled (0 when
// idle).
type prefillWorker struct {
	queue       chan *active
	queuedToks  atomic.Int64
	queuedReqs  atomic.Int64
	inflightTok atomic.Int64
}

// route picks the prefill worker for an arriving prompt, mirroring the
// simulator's placement policies (sim.pickPrefill): RoundRobin by
// cursor, FewestRequests by queued request count, and ShortestQueue and
// LoadAware/SLOAware by queued plus in-flight prompt tokens — the sim
// counts a prompt as queued until its prefill finishes, so a busy
// worker never ties with an idle one. (SLOAware's per-request
// compression-class admission is a cost-model construct; at the numeric
// runtime it routes like LoadAware.) Called with s.mu held.
func (s *Server) route(promptLen int) *prefillWorker {
	best := 0
	switch s.cfg.Scheduler {
	case sim.RoundRobin:
		best = s.rr % len(s.workers)
		s.rr++
	case sim.FewestRequests:
		bestN := int64(math.MaxInt64)
		for i, w := range s.workers {
			n := w.queuedReqs.Load()
			if w.inflightTok.Load() > 0 {
				n++
			}
			if n < bestN {
				best, bestN = i, n
			}
		}
	default: // ShortestQueue, LoadAware, SLOAware
		bestScore := int64(math.MaxInt64)
		for i, w := range s.workers {
			score := w.queuedToks.Load() + w.inflightTok.Load()
			if score < bestScore {
				best, bestScore = i, score
			}
		}
	}
	return s.workers[best]
}

// queueDepth sums the waiting requests across all admission queues.
func (s *Server) queueDepth() int {
	var n int64
	for _, w := range s.workers {
		n += w.queuedReqs.Load()
	}
	return int(n)
}

// runPrefill drains one admission queue: for each request it builds the
// per-request backend and session, runs the real prefill kernel over
// the prompt, streams the first token, and hands the session to the
// decode batcher. The loop exits when Shutdown closes the queue and the
// remaining entries have drained.
func (s *Server) runPrefill(w *prefillWorker) {
	defer s.prefillWG.Done()
	for a := range w.queue {
		// Mark the prompt in flight before taking it off the queue
		// counters, so route always sees it in one of them.
		w.inflightTok.Store(int64(len(a.req.Prompt)))
		w.queuedReqs.Add(-1)
		w.queuedToks.Add(-int64(len(a.req.Prompt)))
		s.prefillOne(a)
		w.inflightTok.Store(0)
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
