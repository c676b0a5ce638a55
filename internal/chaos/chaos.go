// Package chaos is the fault-injection and resilience substrate of the
// disaggregated runtime. The serving paper's premise is that
// prefill/decode disaggregation lives or dies on the KV transfer path;
// this package makes that path hostile on demand — and provides the
// primitives the runtime uses to survive it.
//
// Fault injection: a Conn wraps any net.Conn and applies a Plan —
// added latency, bandwidth throttling, deterministic byte corruption,
// mid-stream resets, half-open stalls, and full partitions. An Injector
// owns the live plans (global and per-address), wraps dials via a
// Dialer hook the disagg router accepts, and counts every fault it
// injects (exported as Prometheus chaos_* series). All randomness is
// seed-driven: the same seed injects the same faults at the same byte
// offsets.
//
// Resilience: Backoff implements jittered exponential backoff under a
// total retry budget (replacing fixed retry counts), and Breaker is a
// per-peer circuit breaker (closed → open after N consecutive failures,
// half-open single-probe recovery) whose state the router exports.
//
// Scenario scripts (scenario.go) name reproducible fault timelines —
// kill-decode, degrade-kv-link, partition-heal, corrupt-frame — that
// the disagg chaos suite and the hackserved -chaos-script dev flag
// replay against live deployments.
package chaos

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hackkv/hack/internal/metrics"
)

// Dialer is the dial hook threaded through the disagg and serve
// configs; it mirrors net.DialTimeout's shape so the default is a
// direct wrap.
type Dialer func(network, addr string, timeout time.Duration) (net.Conn, error)

// Plan is one link's fault schedule. The zero Plan injects nothing.
type Plan struct {
	// Latency is added to every Read and Write call on the link.
	Latency time.Duration
	// BandwidthBps paces writes at the given byte rate (0 = unthrottled).
	BandwidthBps int64
	// CorruptEvery flips one bit in every Nth byte written (0 = off).
	// Handshakes are a few hundred bytes; a value in the KB range leaves
	// them intact and lands the corruption inside KV frames.
	CorruptEvery int64
	// ResetAfterBytes severs the connection after N total bytes have
	// been written — a peer dying mid-frame (0 = off).
	ResetAfterBytes int64
	// StallAfterBytes half-opens the connection after N total bytes have
	// been read: subsequent reads block until the read deadline fires or
	// the connection is closed, like a peer that silently went away
	// (0 = off).
	StallAfterBytes int64
	// Partition refuses new dials to the address and severs its live
	// connections when applied.
	Partition bool
}

// IsZero reports whether the plan injects no faults.
func (p Plan) IsZero() bool { return p == Plan{} }

// Stats counts the faults an Injector has delivered.
type Stats struct {
	Dials          int64 `json:"dials"`
	DialsRefused   int64 `json:"dials_refused"`
	ConnsSevered   int64 `json:"conns_severed"`
	ConnsReset     int64 `json:"conns_reset"`
	BytesCorrupted int64 `json:"bytes_corrupted"`
	ReadsStalled   int64 `json:"reads_stalled"`
	OpsDelayed     int64 `json:"ops_delayed"`
}

// Err is the typed error chaos faults surface. It implements net.Error
// so transport-level retry classification treats injected faults
// exactly like real ones.
type Err struct {
	Op        string // "dial", "read", "write"
	Fault     string // "partition", "reset", "stall"
	IsTimeout bool
}

func (e *Err) Error() string   { return fmt.Sprintf("chaos: %s %s", e.Fault, e.Op) }
func (e *Err) Timeout() bool   { return e.IsTimeout }
func (e *Err) Temporary() bool { return true }

// Injector owns the live fault plans and wraps connections. It is safe
// for concurrent use; plans may change while connections are live (a
// Conn consults the current plan on every operation, so a Heal takes
// effect immediately).
type Injector struct {
	seed int64

	mu      sync.Mutex
	def     Plan
	perAddr map[string]Plan
	conns   map[*Conn]struct{}
	nconns  int64

	dials        atomic.Int64
	dialsRefused atomic.Int64
	severed      atomic.Int64
	resets       atomic.Int64
	corrupted    atomic.Int64
	stalls       atomic.Int64
	delayed      atomic.Int64
}

// NewInjector creates an injector whose corruption randomness derives
// from seed.
func NewInjector(seed int64) *Injector {
	return &Injector{seed: seed, perAddr: map[string]Plan{}, conns: map[*Conn]struct{}{}}
}

// SetDefaultPlan installs the plan applied to addresses without a
// per-address override.
func (in *Injector) SetDefaultPlan(p Plan) {
	in.mu.Lock()
	in.def = p
	in.mu.Unlock()
	if p.Partition {
		in.Sever("")
	}
}

// SetPlan installs addr's fault plan, replacing any previous one.
func (in *Injector) SetPlan(addr string, p Plan) {
	in.mu.Lock()
	in.perAddr[addr] = p
	in.mu.Unlock()
	if p.Partition {
		in.Sever(addr)
	}
}

// Heal clears every plan — the fabric is healthy again. Stats are kept.
func (in *Injector) Heal() {
	in.mu.Lock()
	in.def = Plan{}
	in.perAddr = map[string]Plan{}
	in.mu.Unlock()
}

// PlanFor returns the live plan for addr.
func (in *Injector) PlanFor(addr string) Plan {
	in.mu.Lock()
	defer in.mu.Unlock()
	if p, ok := in.perAddr[addr]; ok {
		return p
	}
	return in.def
}

// Sever closes the live connections to addr ("" severs every live
// connection) and returns how many it closed.
func (in *Injector) Sever(addr string) int {
	in.mu.Lock()
	var victims []*Conn
	for c := range in.conns {
		if addr == "" || c.addr == addr {
			victims = append(victims, c)
		}
	}
	in.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
	in.severed.Add(int64(len(victims)))
	return len(victims)
}

// Dialer wraps base (nil means net.DialTimeout) so every dialed
// connection carries the injector's live plan for its address.
func (in *Injector) Dialer(base Dialer) Dialer {
	if base == nil {
		base = net.DialTimeout
	}
	return func(network, addr string, timeout time.Duration) (net.Conn, error) {
		in.dials.Add(1)
		if in.PlanFor(addr).Partition {
			in.dialsRefused.Add(1)
			return nil, &net.OpError{Op: "dial", Net: network, Err: &Err{Op: "dial", Fault: "partition"}}
		}
		conn, err := base(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		return in.Wrap(conn, addr), nil
	}
}

// Wrap attaches the injector's live plan for addr to an existing
// connection.
func (in *Injector) Wrap(conn net.Conn, addr string) net.Conn {
	in.mu.Lock()
	idx := in.nconns
	in.nconns++
	c := &Conn{Conn: conn, in: in, addr: addr, rng: splitmix64(uint64(in.seed) ^ uint64(idx)*0x9E3779B97F4A7C15)}
	in.conns[c] = struct{}{}
	in.mu.Unlock()
	return c
}

// Stats snapshots the injected-fault counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Dials:          in.dials.Load(),
		DialsRefused:   in.dialsRefused.Load(),
		ConnsSevered:   in.severed.Load(),
		ConnsReset:     in.resets.Load(),
		BytesCorrupted: in.corrupted.Load(),
		ReadsStalled:   in.stalls.Load(),
		OpsDelayed:     in.delayed.Load(),
	}
}

// WritePrometheus renders the fault counters as chaos_* series in the
// text exposition format (0.0.4).
func (in *Injector) WritePrometheus(w io.Writer) error {
	st := in.Stats()
	p := metrics.NewProm(w)
	p.Counter("chaos_dials_total", "Dials attempted through the injector.", st.Dials)
	p.Counter("chaos_dials_refused_total", "Dials refused by a partition plan.", st.DialsRefused)
	p.Counter("chaos_conns_severed_total", "Live connections severed by partitions.", st.ConnsSevered)
	p.Counter("chaos_conns_reset_total", "Connections reset mid-stream.", st.ConnsReset)
	p.Counter("chaos_bytes_corrupted_total", "Written bytes with an injected bit flip.", st.BytesCorrupted)
	p.Counter("chaos_reads_stalled_total", "Reads that hit a half-open stall.", st.ReadsStalled)
	p.Counter("chaos_ops_delayed_total", "Read/write operations with injected latency.", st.OpsDelayed)
	return p.Err()
}

// Conn is a net.Conn with faults. Build one through Injector.Wrap or
// Injector.Dialer.
type Conn struct {
	net.Conn
	in   *Injector
	addr string
	rng  uint64

	mu           sync.Mutex
	readDeadline time.Time
	closed       bool

	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
}

// splitmix64 is the per-connection corruption RNG.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (c *Conn) nextRand() uint64 {
	c.mu.Lock()
	c.rng = splitmix64(c.rng)
	r := c.rng
	c.mu.Unlock()
	return r
}

func (c *Conn) delay(p Plan) {
	if p.Latency > 0 {
		c.in.delayed.Add(1)
		time.Sleep(p.Latency)
	}
}

// Read applies the live plan: latency, then a half-open stall once the
// byte threshold is crossed (blocking until the read deadline or Close).
func (c *Conn) Read(b []byte) (int, error) {
	p := c.in.PlanFor(c.addr)
	c.delay(p)
	if p.StallAfterBytes > 0 && c.bytesRead.Load() >= p.StallAfterBytes {
		c.in.stalls.Add(1)
		return 0, c.stall()
	}
	n, err := c.Conn.Read(b)
	c.bytesRead.Add(int64(n))
	return n, err
}

// stall blocks like a silent peer: it returns only when the connection
// is closed or its read deadline fires (as a timeout net.Error).
func (c *Conn) stall() error {
	for {
		c.mu.Lock()
		closed, dl := c.closed, c.readDeadline
		c.mu.Unlock()
		if closed {
			return net.ErrClosed
		}
		if !dl.IsZero() && !time.Now().Before(dl) {
			return &Err{Op: "read", Fault: "stall", IsTimeout: true}
		}
		// Re-check the plan so a Heal un-stalls the link.
		if p := c.in.PlanFor(c.addr); p.StallAfterBytes <= 0 || c.bytesRead.Load() < p.StallAfterBytes {
			return &Err{Op: "read", Fault: "stall-interrupted", IsTimeout: true}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Write applies the live plan: latency, bandwidth pacing, deterministic
// bit flips, and mid-stream resets.
func (c *Conn) Write(b []byte) (int, error) {
	p := c.in.PlanFor(c.addr)
	c.delay(p)
	if p.BandwidthBps > 0 {
		time.Sleep(time.Duration(float64(len(b)) / float64(p.BandwidthBps) * float64(time.Second)))
	}
	written := c.bytesWritten.Load()
	if p.ResetAfterBytes > 0 && written >= p.ResetAfterBytes {
		c.in.resets.Add(1)
		c.Close()
		return 0, &Err{Op: "write", Fault: "reset"}
	}
	if p.CorruptEvery > 0 {
		// Flip one pseudo-random bit in every CorruptEvery-th byte of
		// the stream, deterministically by absolute stream offset.
		next := (written/p.CorruptEvery+1)*p.CorruptEvery - 1 // next corrupt offset >= written
		if next < written+int64(len(b)) {
			mut := append([]byte(nil), b...)
			for ; next < written+int64(len(mut)); next += p.CorruptEvery {
				mut[next-written] ^= 1 << (c.nextRand() % 8)
				c.in.corrupted.Add(1)
			}
			b = mut
		}
	}
	n, err := c.Conn.Write(b)
	c.bytesWritten.Add(int64(n))
	return n, err
}

// SetReadDeadline tracks the deadline (stalls honor it) and passes it
// through.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

// SetDeadline tracks the read half and passes the call through.
func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

// Close closes the underlying connection and deregisters from the
// injector.
func (c *Conn) Close() error {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	c.mu.Unlock()
	err := c.Conn.Close()
	if !already {
		c.in.mu.Lock()
		delete(c.in.conns, c)
		c.in.mu.Unlock()
	}
	return err
}
