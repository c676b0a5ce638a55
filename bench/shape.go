package bench

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ShapedProxy is a TCP relay in front of one node's wire address that
// paces each direction at a fixed byte rate, shared by every connection
// through it, the way a NIC would. It is the benchmark's network: the
// fleet is told the proxy's address wherever it would be told the
// node's, so the link is shaped whoever dials whom.
type ShapedProxy struct {
	ln     net.Listener
	target string
	// in paces bytes toward the node, out bytes coming back from it.
	in, out *pacer

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewShapedProxy listens on a loopback port and relays to target at
// bytesPerSecond in each direction.
func NewShapedProxy(target string, bytesPerSecond float64) (*ShapedProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &ShapedProxy{
		ln: ln, target: target,
		in: &pacer{rate: bytesPerSecond}, out: &pacer{rate: bytesPerSecond},
		conns: make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the address to hand out in place of the node's.
func (p *ShapedProxy) Addr() string { return p.ln.Addr().String() }

// Bytes reports the bytes relayed toward the node and back from it.
func (p *ShapedProxy) Bytes() (in, out int64) { return p.in.bytes.Load(), p.out.bytes.Load() }

// Close stops accepting, closes every relayed connection and waits for
// the relay goroutines.
func (p *ShapedProxy) Close() {
	p.mu.Lock()
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.ln.Close()
	p.wg.Wait()
}

// track registers a connection for Close; it reports false (and closes
// c) when the proxy is already closed.
func (p *ShapedProxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.Close()
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *ShapedProxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
	c.Close()
}

func (p *ShapedProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		node, err := net.Dial("tcp", p.target)
		if err != nil {
			client.Close()
			continue
		}
		if !p.track(client) || !p.track(node) {
			client.Close()
			node.Close()
			return
		}
		p.wg.Add(2)
		go p.relay(node, client, p.in)
		go p.relay(client, node, p.out)
	}
}

// relay copies src to dst through the pacer until either side closes,
// then closes both so the opposite relay ends too.
func (p *ShapedProxy) relay(dst, src net.Conn, pc *pacer) {
	defer p.wg.Done()
	defer p.untrack(dst)
	defer p.untrack(src)
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			pc.wait(n)
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// pacer is a virtual transmit clock: each chunk occupies the link for
// n/rate after the previous one, and is delivered when its slot ends.
type pacer struct {
	rate  float64
	bytes atomic.Int64

	mu   sync.Mutex
	next time.Time
}

const (
	// pacerSlack is how long after the previous chunk's slot a chunk may
	// arrive and still be queued right behind it. A relay reads its next
	// chunk only after its timer fired and the write returned, always a
	// little late; without the slack that lateness would add up over a
	// transfer. A chunk arriving later than this finds the link idle.
	pacerSlack = 2 * time.Millisecond
	// pacerMinSleep lets messages of a few bytes through without a
	// timer; their slots still advance the clock.
	pacerMinSleep = 200 * time.Microsecond
)

func (pc *pacer) wait(n int) {
	pc.bytes.Add(int64(n))
	pc.mu.Lock()
	now := time.Now()
	if now.After(pc.next.Add(pacerSlack)) {
		pc.next = now
	}
	pc.next = pc.next.Add(time.Duration(float64(n) / pc.rate * float64(time.Second)))
	until := pc.next
	pc.mu.Unlock()
	if d := until.Sub(now); d > pacerMinSleep {
		time.Sleep(d)
	}
}
