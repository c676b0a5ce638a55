package disagg

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"sync"

	"github.com/hackkv/hack/internal/api"
)

// nodeHTTP is the per-node health/metrics endpoint for orchestrators
// (the router reads none of it): GET /healthz answers 200 ("ok") or 503
// ("draining"), and GET /metrics
// serves the node's snapshot as JSON or, under content negotiation, in
// Prometheus text format (the same api.WantsPrometheus negotiation as
// every serving role's /metrics).
type nodeHTTP struct {
	ln   net.Listener
	srv  *http.Server
	once sync.Once
}

// newNodeHTTP binds addr and starts serving. snapshot supplies the JSON
// metrics body; prom (optional) renders the Prometheus form; draining
// flips /healthz to 503.
func newNodeHTTP(addr string, snapshot func() any, prom func(io.Writer) error, draining func() bool) (*nodeHTTP, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if draining != nil && draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if prom != nil && api.WantsPrometheus(r) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = prom(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(snapshot())
	})
	h := &nodeHTTP{ln: ln, srv: &http.Server{Handler: mux}}
	go h.srv.Serve(ln)
	return h, nil
}

// Addr returns the bound address.
func (h *nodeHTTP) Addr() string { return h.ln.Addr().String() }

// Close stops the server.
func (h *nodeHTTP) Close() {
	h.once.Do(func() { h.srv.Close() })
}
