package hack

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/hackkv/hack/internal/chaos"
	"github.com/hackkv/hack/internal/disagg"
	"github.com/hackkv/hack/internal/model"
	"github.com/hackkv/hack/internal/netsim"
)

// Role names a process's job in a disaggregated deployment. A local
// engine (RoleLocal, the zero value) serves prefill and decode in one
// process via Listen; the other roles split them across a real TCP wire
// via ListenDisagg.
type Role string

// The disaggregated serving roles.
const (
	// RoleLocal is the single-process runtime (Engine.Listen).
	RoleLocal Role = "local"
	// RolePrefill runs prefills on its serving runtime's prefill
	// workers (and prefix tier) and ships quantized KV caches.
	RolePrefill Role = "prefill"
	// RoleDecode adopts shipped KV caches into the continuous-batching
	// decode loop. Prefill and decode nodes are one node type; the role
	// labels the node's handshake and decides where the prefix tier may
	// run.
	RoleDecode Role = "decode"
	// RoleRouter fronts the deployment: it drives prefill, places each
	// decode on the least-loaded replica in placement, and proxies
	// tokens.
	RoleRouter Role = "router"
)

// Roles lists the valid role names.
func Roles() []string {
	return []string{string(RoleLocal), string(RolePrefill), string(RoleDecode), string(RoleRouter)}
}

// ParseRole resolves a role by name ("" means local).
func ParseRole(s string) (Role, error) {
	switch Role(s) {
	case RoleLocal, RolePrefill, RoleDecode, RoleRouter:
		return Role(s), nil
	case "":
		return RoleLocal, nil
	}
	return "", fmt.Errorf("hack: unknown role %q (valid: local, prefill, decode, router)", s)
}

// WithRole assigns the engine's disaggregated serving role, used by
// ListenDisagg. The default is RoleLocal.
func WithRole(r Role) Option {
	return func(e *Engine) error {
		if _, err := ParseRole(string(r)); err != nil {
			return err
		}
		if r == "" {
			r = RoleLocal
		}
		e.role = r
		return nil
	}
}

// WithPeers names the deployment's peer wire addresses: the prefill
// nodes and decode replicas a router fronts. Only RoleRouter uses them.
func WithPeers(prefills, decodes []string) Option {
	return func(e *Engine) error {
		e.peerPrefills = append([]string(nil), prefills...)
		e.peerDecodes = append([]string(nil), decodes...)
		return nil
	}
}

// DisaggConfig sizes the wire-facing side of a disaggregated node. The
// zero value of every field selects a default.
type DisaggConfig struct {
	// WireAddr is the TCP listen address for the KV wire protocol
	// (prefill and decode roles; default 127.0.0.1:0).
	WireAddr string
	// HTTPAddr serves the node's /healthz and /metrics; empty disables
	// it. /healthz is for orchestrators such as docker-compose: the
	// router judges replicas by their wire jobs and handshakes alone.
	HTTPAddr string
	// NodeID names the node in handshakes (default: the wire address).
	NodeID string
	// Deprecated: MaxConcurrentPrefills is ignored. A prefill node runs
	// its prefills on its serving runtime's prefill workers, sized by
	// ServeConfig.PrefillWorkers.
	MaxConcurrentPrefills int
	// Deprecated: HealthInterval is ignored. The router polls no
	// /healthz: a replica's breaker and drain state come from its wire
	// jobs, and the router redials a replica out of placement every
	// breaker cooldown.
	HealthInterval time.Duration
	// ChaosScript names a fault-injection script (see ChaosScripts) the
	// router replays against its own links after startup — a chaos-testing
	// knob for drills against a live deployment. Kill actions are modeled
	// as partitions of the target replica's link, since a router cannot
	// kill a remote process. Empty disables injection. ChaosSeed drives
	// the injector's deterministic corruption (default 1).
	ChaosScript string
	ChaosSeed   int64
}

// ChaosScripts lists the named fault-injection scripts a router role can
// replay via DisaggConfig.ChaosScript, sorted.
func ChaosScripts() []string { return chaos.Scripts() }

// WithDisaggConfig sizes the node started by ListenDisagg.
func WithDisaggConfig(dc DisaggConfig) Option {
	return func(e *Engine) error {
		if dc.ChaosScript != "" {
			if _, err := chaos.ScriptNamed(dc.ChaosScript); err != nil {
				return err
			}
		}
		e.disaggCfg = dc
		return nil
	}
}

// Disaggregated-serving types re-exported from the internal subsystem.
type (
	// RoutedRequest is one generation job submitted through a router.
	RoutedRequest = disagg.Request
	// RoutedStream delivers a routed request's tokens in order; Err()
	// reports how it ended once the channel closes.
	RoutedStream = disagg.Stream
	// DisaggReport is the router's live deployment view: request and
	// retry counters, per-link KV bytes, transfer latency percentiles,
	// and per-replica occupancy.
	DisaggReport = disagg.Report
	// ReplicaStatus is one decode replica's row in a DisaggReport.
	ReplicaStatus = disagg.ReplicaStatus
)

// Disaggregated-serving sentinel errors.
var (
	// ErrNoPrefill means no healthy prefill node could be reached.
	ErrNoPrefill = disagg.ErrNoPrefill
	// ErrNoReplicas means no decode replica was in placement: every
	// one was draining or had its circuit breaker open.
	ErrNoReplicas = disagg.ErrNoReplicas
	// ErrTransferFailed means a KV transfer failed on every retry.
	ErrTransferFailed = disagg.ErrTransferFailed
	// ErrHandshakeRefused means a peer rejected the wire handshake —
	// mismatched method, model spec, or model seed — so the nodes
	// belong to incompatible deployments.
	ErrHandshakeRefused = netsim.ErrHandshakeRefused
)

// DisaggServer is one running node of a disaggregated deployment,
// started by Engine.ListenDisagg. Its useful surface depends on the
// role: every role has WireAddr/HTTPAddr/Close; routers additionally
// submit requests and report deployment state; prefill and decode
// nodes drain.
type DisaggServer struct {
	role   Role
	spec   ModelSpec
	node   *disagg.Node // prefill and decode roles
	router *disagg.Router
	// chaosStop cancels a ChaosScript replay in flight (router role).
	chaosStop context.CancelFunc
}

// ListenDisagg starts the engine's disaggregated role (see WithRole):
// a prefill node, a decode replica, or a router over the peers named by
// WithPeers. Prefill and decode nodes each run a serving runtime sized
// by WithServeConfig; the prefill role may host the prefix tier
// (WithPrefixCache), which the decode and router roles refuse. The
// deployment's method, model spec, and model seed are carried in the
// wire handshake, so mismatched nodes refuse to pair. Cancelling ctx
// closes the node in the background.
func (e *Engine) ListenDisagg(ctx context.Context) (*DisaggServer, error) {
	dc := e.disaggCfg
	if dc.WireAddr == "" {
		dc.WireAddr = "127.0.0.1:0"
	}
	sc := e.serveCfg
	if e.prefixBytes > 0 && (e.role == RoleDecode || e.role == RoleRouter) {
		return nil, fmt.Errorf("hack: the shared-prefix cache runs where prefill runs: the local and prefill roles, not %s", e.role)
	}
	ds := &DisaggServer{role: e.role, spec: sc.Model}
	if ds.spec.Layers == 0 && ds.spec.Hidden == 0 {
		// Match the serving runtime's zero-spec default so Model() (and
		// the HTTP layer's tokenizer shim) sees the architecture the
		// deployment actually runs.
		ds.spec = model.Toy()
	}
	var err error
	switch e.role {
	case RolePrefill, RoleDecode:
		ds.node, err = disagg.NewNode(disagg.NodeConfig{
			Addr: dc.WireAddr, HTTPAddr: dc.HTTPAddr, NodeID: dc.NodeID,
			Role: string(e.role), MethodName: e.method.Name,
			Serve: e.runtimeConfig(),
		})
	case RoleRouter:
		var inj *chaos.Injector
		if dc.ChaosScript != "" {
			seed := dc.ChaosSeed
			if seed == 0 {
				seed = 1
			}
			inj = chaos.NewInjector(seed)
		}
		ds.router, err = disagg.NewRouter(disagg.RouterConfig{
			Prefills: e.peerPrefills, Decodes: e.peerDecodes,
			NodeID: dc.NodeID, HTTPAddr: dc.HTTPAddr,
			Spec: sc.Model, ModelSeed: sc.ModelSeed, MethodName: e.method.Name,
			Chaos: inj,
		})
		if err == nil && inj != nil {
			script, serr := chaos.ScriptNamed(dc.ChaosScript)
			if serr != nil {
				ds.router.Close()
				return nil, fmt.Errorf("hack: %w", serr)
			}
			pctx, cancel := context.WithCancel(context.Background())
			ds.chaosStop = cancel
			go func() {
				_ = script.Play(pctx, routerChaosApply(inj, e.peerPrefills, e.peerDecodes))
			}()
		}
	default:
		return nil, fmt.Errorf("hack: engine role %q is not disaggregated; use Listen", e.role)
	}
	if err != nil {
		return nil, fmt.Errorf("hack: %w", err)
	}
	if ctx != nil && ctx.Done() != nil {
		go func() {
			<-ctx.Done()
			_ = ds.Close()
		}()
	}
	return ds, nil
}

// Role returns the node's role.
func (s *DisaggServer) Role() Role { return s.role }

// Model returns the numeric architecture the deployment serves (the
// spec carried in every wire handshake).
func (s *DisaggServer) Model() ModelSpec { return s.spec }

// WireAddr returns the node's KV wire address ("" for routers, which
// initiate connections rather than accept them).
func (s *DisaggServer) WireAddr() string {
	if s.node == nil {
		return ""
	}
	return s.node.Addr()
}

// HTTPAddr returns the node's health/metrics address ("" if disabled).
func (s *DisaggServer) HTTPAddr() string {
	if s.node != nil {
		return s.node.HTTPAddr()
	}
	return s.router.HTTPAddr()
}

// Submit routes one generation request through the disaggregated
// pipeline (router role only): prefill on a prefill node, KV transfer,
// load-aware placement on a decode replica, token proxying with
// failover. The stream is live immediately.
func (s *DisaggServer) Submit(ctx context.Context, req RoutedRequest) (*RoutedStream, error) {
	if s.role != RoleRouter {
		return nil, fmt.Errorf("hack: role %q cannot submit requests", s.role)
	}
	return s.router.Submit(ctx, req)
}

// Report returns the router's deployment view (router role only; other
// roles return the zero report).
func (s *DisaggServer) Report() DisaggReport {
	if s.role != RoleRouter {
		return DisaggReport{}
	}
	return s.router.Report()
}

// WritePrometheus renders the node's metrics in Prometheus text format
// (router role only; prefill and decode nodes expose theirs on their
// own HTTP endpoints).
func (s *DisaggServer) WritePrometheus(w io.Writer) error {
	if s.role != RoleRouter {
		return fmt.Errorf("hack: role %q has no router metrics", s.role)
	}
	return s.router.WritePrometheus(w)
}

// AddReplica registers a decode replica with the router at runtime.
func (s *DisaggServer) AddReplica(addr string) error {
	if s.role != RoleRouter {
		return fmt.Errorf("hack: role %q has no replica set", s.role)
	}
	return s.router.AddReplica(addr)
}

// RemoveReplica deregisters a decode replica from the router.
func (s *DisaggServer) RemoveReplica(addr string) error {
	if s.role != RoleRouter {
		return fmt.Errorf("hack: role %q has no replica set", s.role)
	}
	s.router.RemoveReplica(addr)
	return nil
}

// Drain begins a graceful drain (prefill and decode roles): /healthz
// flips to 503, new wire jobs are refused as draining (routers place
// them elsewhere), and in-flight requests finish.
func (s *DisaggServer) Drain() error {
	if s.node == nil {
		return fmt.Errorf("hack: role %q does not drain", s.role)
	}
	s.node.Drain()
	return nil
}

// routerChaosApply maps script actions onto a router-attached injector.
// The router owns only its side of each link, so kill actions become
// partitions of the target replica's link; everything else applies the
// event's plan to the addressed links (-1 targets all of them).
func routerChaosApply(inj *chaos.Injector, prefills, decodes []string) func(chaos.Action) {
	links := func(target int) []string {
		if target < 0 {
			return append(append([]string{}, prefills...), decodes...)
		}
		if target < len(decodes) {
			return []string{decodes[target]}
		}
		return nil
	}
	return func(a chaos.Action) {
		switch a.Kind {
		case chaos.ActKillDecode, chaos.ActPartition:
			for _, addr := range links(a.Target) {
				inj.SetPlan(addr, chaos.Plan{Partition: true})
			}
		case chaos.ActDegradeLink, chaos.ActCorruptFrame:
			if a.Target < 0 {
				inj.SetDefaultPlan(a.Plan)
				return
			}
			for _, addr := range links(a.Target) {
				inj.SetPlan(addr, a.Plan)
			}
		case chaos.ActHeal:
			inj.Heal()
		}
	}
}

// Close stops the node. For prefill and decode nodes it drains the
// wrapped runtime; for routers it waits for in-flight submissions.
func (s *DisaggServer) Close() error {
	if s.chaosStop != nil {
		s.chaosStop()
	}
	if s.node != nil {
		return s.node.Close()
	}
	return s.router.Close()
}
