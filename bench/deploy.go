package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"github.com/hackkv/hack"
)

// Deployment is one in-process deployment of a workload, built from the
// public facade and reachable over loopback HTTP at URL.
type Deployment struct {
	URL string
	// Local is the serving runtime of a local-role deployment; Router,
	// Prefill and Decodes are the nodes of a fleet.
	Local   *hack.Server
	Router  *hack.DisaggServer
	Prefill *hack.DisaggServer
	Decodes []*hack.DisaggServer
	// Proxies front the fleet's wire addresses: prefill first, then the
	// decode nodes.
	Proxies []*ShapedProxy

	// prefixBytes is what one cached shared prefix occupies (prefix
	// workload only).
	prefixBytes int64

	ln  net.Listener
	srv *http.Server
}

// Method names the serving method of a local deployment; the fleet is
// HACK-only (the other backends do not export their cache).
const (
	MethodHACK    = "HACK"
	MethodKVQuant = "KVQuant"
	MethodFP16    = "Baseline"
)

func serveConfig(workers, batch int) hack.ServeConfig {
	return hack.ServeConfig{
		PrefillWorkers: workers, MaxBatch: batch,
		QueueCap: QueueCap, MaxNewTokens: MaxNewTokens,
	}
}

// Deploy builds the workload's deployment and starts serving it.
func Deploy(ctx context.Context, w Workload) (*Deployment, error) {
	d := &Deployment{}
	var handler http.Handler
	var err error
	if w.Fleet {
		handler, err = d.deployFleet(ctx)
	} else {
		opts := []hack.Option{hack.WithMethod(MethodHACK), hack.WithServeConfig(serveConfig(PrefillWorkers, MaxBatch))}
		if w.Prefix {
			if d.prefixBytes, err = prefixCacheBytes(ctx); err != nil {
				return nil, err
			}
			opts = append(opts, hack.WithPrefixCache(PrefixResident*d.prefixBytes))
		}
		if d.Local, err = listen(ctx, opts...); err == nil {
			handler = d.Local.Handler()
		}
	}
	if err != nil {
		d.Close()
		return nil, err
	}
	if d.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		d.Close()
		return nil, err
	}
	d.URL = "http://" + d.ln.Addr().String()
	d.srv = &http.Server{Handler: handler}
	go func() { _ = d.srv.Serve(d.ln) }()
	return d, nil
}

func listen(ctx context.Context, opts ...hack.Option) (*hack.Server, error) {
	eng, err := hack.New(opts...)
	if err != nil {
		return nil, err
	}
	return eng.Listen(ctx)
}

// prefixCacheBytes measures what one cached PrefixTokens-token prefix
// occupies, by caching one on a throwaway server: the budget then
// tracks the page format instead of restating it.
func prefixCacheBytes(ctx context.Context) (int64, error) {
	srv, err := listen(ctx, hack.WithMethod(MethodHACK), hack.WithServeConfig(serveConfig(1, 1)), hack.WithPrefixCache(1<<30))
	if err != nil {
		return 0, err
	}
	defer srv.Shutdown(ctx)
	// One token past the prefix: the last prompt position is never cached.
	if _, err := srv.Generate(ctx, hack.GenRequest{Prompt: make([]int, PrefixTokens+1), MaxNewTokens: 1, Seed: 1}); err != nil {
		return 0, err
	}
	pc := srv.Metrics().PrefixCache
	if pc == nil || pc.BytesUsed <= 0 {
		return 0, errors.New("bench: prefix cache probe cached nothing")
	}
	return pc.BytesUsed, nil
}

// deployFleet starts one prefill node and two decode nodes, fronts each
// wire address with a shaping proxy, and points a router at the proxies.
func (d *Deployment) deployFleet(ctx context.Context) (http.Handler, error) {
	node := func(role hack.Role, extra ...hack.Option) (*hack.DisaggServer, error) {
		eng, err := hack.New(append([]hack.Option{
			hack.WithMethod(MethodHACK), hack.WithRole(role),
			hack.WithServeConfig(serveConfig(PrefillWorkers, MaxBatch)),
		}, extra...)...)
		if err != nil {
			return nil, err
		}
		return eng.ListenDisagg(ctx)
	}
	// The nodes' HTTP endpoints carry their metrics; the facade exposes
	// no other accessor for a prefill or decode node's counters.
	withHTTP := hack.WithDisaggConfig(hack.DisaggConfig{HTTPAddr: "127.0.0.1:0", MaxConcurrentPrefills: PrefillWorkers})
	var err error
	if d.Prefill, err = node(hack.RolePrefill, withHTTP); err != nil {
		return nil, err
	}
	nodes := []*hack.DisaggServer{d.Prefill}
	for i := 0; i < 2; i++ {
		dec, err := node(hack.RoleDecode, withHTTP)
		if err != nil {
			return nil, err
		}
		d.Decodes = append(d.Decodes, dec)
		nodes = append(nodes, dec)
	}
	var addrs []string
	for _, n := range nodes {
		p, err := NewShapedProxy(n.WireAddr(), WireBytesPerSecond)
		if err != nil {
			return nil, err
		}
		d.Proxies = append(d.Proxies, p)
		addrs = append(addrs, p.Addr())
	}
	// Health polling is a deployment setting; an hour keeps a probe that
	// times out on a saturated two-core host from failing requests.
	d.Router, err = node(hack.RoleRouter,
		hack.WithPeers(addrs[:1], addrs[1:]),
		hack.WithDisaggConfig(hack.DisaggConfig{HealthInterval: time.Hour}))
	if err != nil {
		return nil, err
	}
	return d.Router.Handler(), nil
}

// Close stops the deployment: the HTTP front first, then the router,
// the nodes and the proxies.
func (d *Deployment) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if d.srv != nil {
		_ = d.srv.Shutdown(ctx)
	}
	if d.Local != nil {
		_ = d.Local.Shutdown(ctx)
	}
	if d.Router != nil {
		_ = d.Router.Close()
	}
	for _, n := range append([]*hack.DisaggServer{d.Prefill}, d.Decodes...) {
		if n != nil {
			_ = n.Close()
		}
	}
	for _, p := range d.Proxies {
		p.Close()
	}
}

// ServeSnapshots returns the serving runtime's metrics: the local
// server's, or each decode node's on a fleet.
func (d *Deployment) ServeSnapshots() ([]hack.ServeSnapshot, error) {
	if d.Local != nil {
		return []hack.ServeSnapshot{d.Local.Metrics()}, nil
	}
	var out []hack.ServeSnapshot
	for _, n := range d.Decodes {
		var s hack.ServeSnapshot
		if err := getJSON("http://"+n.HTTPAddr()+"/metrics", &s); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// PrefillStats is the framed KV bytes the fleet's prefill node sent and
// the prefills it ran (zeros on a local deployment).
func (d *Deployment) PrefillStats() (kvBytes, prefills int64, err error) {
	if d.Prefill == nil {
		return 0, 0, nil
	}
	var st struct {
		Prefills int64 `json:"prefills"`
		KVBytes  int64 `json:"kv_bytes_sent"`
	}
	err = getJSON("http://"+d.Prefill.HTTPAddr()+"/metrics", &st)
	return st.KVBytes, st.Prefills, err
}

// LinkKVBytes totals the router's per-link KV byte counters (0 on a
// local deployment).
func (d *Deployment) LinkKVBytes() int64 {
	if d.Router == nil {
		return 0
	}
	return linkKVBytes(d.Router.Report())
}

// linkKVBytes totals a router report's per-link KV byte counters.
func linkKVBytes(rep hack.DisaggReport) int64 {
	var n int64
	for _, b := range rep.LinkKVBytes {
		n += b
	}
	return n
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("bench: GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
