package hack

import (
	"context"
	"errors"
	"io"
	"net/http"

	"github.com/hackkv/hack/internal/api"
)

// The HTTP layer: every serving role mounts the exact same handler
// stack from internal/api — the bespoke NDJSON /v1/generate stream, the
// OpenAI-compatible /v1/completions, /v1/chat/completions and
// /v1/models routes, /metrics (JSON or Prometheus text under content
// negotiation), and /healthz. The thin adapters below satisfy the api
// package's narrow Generator interface for both the local runtime
// (Server) and the disaggregated router (DisaggServer), so the two
// roles cannot drift apart.

// Handler returns the daemon's full HTTP surface over this server —
// what the hackserved local role serves:
//
//	POST /v1/generate            NDJSON token stream (token-id prompts)
//	POST /v1/completions         OpenAI text completions (JSON or SSE)
//	POST /v1/chat/completions    OpenAI chat completions (JSON or SSE)
//	GET  /v1/models              the served model + registry listing
//	GET  /metrics                JSON, or Prometheus text via Accept/?format
//	GET  /healthz                200 ok / 503 draining
//
// OpenAI-format requests map text through a deterministic tokenizer
// shim; their emitted token ids are byte-identical to the equivalent
// /v1/generate call per (prompt, seed). Client disconnects mid-stream
// cancel the request inside the engine.
func (s *Server) Handler() http.Handler { return api.NewHandler(localGen{s}) }

// Handler returns the identical HTTP surface over this node's router
// (router role): the generation routes proxy over the KV wire with
// load-aware placement and failover, and /metrics reports the
// deployment view. Prefill and decode nodes serve their own /healthz
// and /metrics endpoints instead; a non-router node's Handler rejects
// generation requests.
func (s *DisaggServer) Handler() http.Handler { return api.NewHandler(routerGen{s}) }

// localGen adapts the in-process serving runtime to api.Generator.
type localGen struct{ s *Server }

func (g localGen) Generate(ctx context.Context, req api.Request) (api.Stream, error) {
	st, err := g.s.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	return st, nil
}

func (g localGen) Draining() bool   { return g.s.Draining() }
func (g localGen) MetricsJSON() any { return g.s.Metrics() }
func (g localGen) WritePrometheus(w io.Writer) error {
	return g.s.Metrics().WritePrometheus(w, "hackserved")
}
func (g localGen) ModelID() string { return g.s.Model().Name }
func (g localGen) Vocab() int      { return g.s.Model().Vocab }

// routerGen adapts a disaggregated router node to api.Generator.
type routerGen struct{ s *DisaggServer }

func (g routerGen) Generate(ctx context.Context, req api.Request) (api.Stream, error) {
	st, err := g.s.Submit(ctx, RoutedRequest{
		Prompt: req.Prompt, MaxNewTokens: req.MaxNewTokens, EOS: req.EOS, Seed: req.Seed,
	})
	if err != nil {
		return nil, classifyRouted(err)
	}
	return routedStream{st}, nil
}

func (g routerGen) Draining() bool   { return false }
func (g routerGen) MetricsJSON() any { return g.s.Report() }
func (g routerGen) WritePrometheus(w io.Writer) error {
	return g.s.WritePrometheus(w)
}
func (g routerGen) ModelID() string { return g.s.Model().Name }
func (g routerGen) Vocab() int      { return g.s.Model().Vocab }

// classifyRouted marks the router's fleet-level failures as 503
// service_unavailable conditions for the shared error classifier; the
// client did nothing wrong when no replica is healthy or a KV transfer
// exhausted its retries. Other errors (validation, draining) pass
// through to the classifier's own mappings.
func classifyRouted(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrNoPrefill):
		return api.Unavailable("no_prefill", err)
	case errors.Is(err, ErrNoReplicas):
		return api.Unavailable("no_replicas", err)
	case errors.Is(err, ErrTransferFailed):
		return api.Unavailable("transfer_failed", err)
	}
	return err
}

// routedStream is the router's token stream as the handler consumes it,
// with fleet-level failures classified for the shared error mapping.
// Cancelling the request's context ends the router's sender, which
// then seals the stream.
type routedStream struct{ *RoutedStream }

func (r routedStream) Err() error { return classifyRouted(r.RoutedStream.Err()) }
