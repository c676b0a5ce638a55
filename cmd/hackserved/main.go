// Command hackserved is the live serving daemon: an HTTP front end over
// the continuous-batching runtime, generating real tokens through the
// homomorphic HACK kernels (or any registered serving method).
//
//	hackserved -addr 127.0.0.1:8080 -method HACK -prefill-workers 2
//
// Endpoints (the shared handler stack from internal/api, identical on
// the local and router roles):
//
//	POST /v1/generate          {"prompt":[1,2,3],"max_new_tokens":8,"seed":7}
//	                           → streamed NDJSON, one {"index":i,"id":t} line
//	                           per token, then a {"done":true} trailer
//	POST /v1/completions       OpenAI-compatible text completion: text
//	                           prompts via a deterministic tokenizer shim,
//	                           "stream":true for SSE (data: chunks, usage
//	                           in the final chunk, data: [DONE])
//	POST /v1/chat/completions  OpenAI-compatible chat completion, same
//	                           streaming contract
//	GET  /v1/models            the served model plus the model/method
//	                           registries, OpenAI list format
//	GET  /metrics              live serving snapshot: JSON by default, or
//	                           Prometheus text format with ?format=prometheus
//	                           (or an Accept header preferring text/plain)
//	GET  /healthz              {"status":"ok"}, or 503 {"status":"draining"}
//
// OpenAI-format requests produce token streams byte-identical to the
// equivalent /v1/generate call per (prompt, seed); errors on every
// route share one OpenAI-style {"error":{"type","message","code"}}
// envelope (429 queue-full, 503 draining, 400 validation).
//
// The default role serves prefill and decode in one process. Adding
// -prefix-cache-bytes N enables the shared-prefix KV cache: quantized
// KV pages from completed prefills are kept under an N-byte budget, and
// a request sharing a cached prompt prefix skips prefill over the
// matched span (hit/miss/bytes-saved counters appear under
// "prefix_cache" in /metrics). The tier runs where prefill runs: the
// local and prefill roles accept it, the decode and router roles refuse
// it. With -role the daemon becomes one node of a true disaggregated
// deployment connected over the KV wire protocol:
//
//	hackserved -role prefill -wire 127.0.0.1:9101 -addr 127.0.0.1:8081
//	hackserved -role decode  -wire 127.0.0.1:9201 -addr 127.0.0.1:8082
//	hackserved -role decode  -wire 127.0.0.1:9202 -addr 127.0.0.1:8083
//	hackserved -role router  -peer-prefills 127.0.0.1:9101 \
//	    -peer-decodes 127.0.0.1:9201,127.0.0.1:9202 -addr 127.0.0.1:8080
//
// Prefill and decode nodes are one node type around the serving
// runtime, so -prefill-workers and -queue size a prefill node's
// prefills as they size the local role's: the workers pull from one
// FIFO admission queue of -prefill-workers × -queue slots. They speak the wire protocol
// on -wire and serve /healthz + /metrics on -addr; the router serves
// the same HTTP API as the local role on -addr (NDJSON /v1/generate
// proxied over the wire, /metrics reporting the deployment view) and
// places each request on the least-loaded healthy decode replica,
// passing a prefill job on to the next prefill node when one is full or
// draining. The router retries transient
// wire faults (connection loss, corrupt frames, missed frame deadlines)
// under a jittered-backoff retry budget and trips a per-replica circuit
// breaker on repeated failures; breaker state and trip counters appear
// in /metrics.
//
// Adding -chaos-script NAME to the router replays a named fault script
// against the router's own links — a self-contained chaos drill for
// staging deployments. Scripts inject latency, bandwidth caps, frame
// corruption, and partitions (a scripted "kill" is modeled as
// partitioning that replica's link, since the router cannot stop a
// remote process), then heal; -chaos-seed makes the injected faults
// reproducible. Streams must still complete exactly — the injector's
// chaos_* counters surface on the router's /metrics alongside the
// breaker series:
//
//	hackserved -role router -peer-prefills 127.0.0.1:9101 \
//	    -peer-decodes 127.0.0.1:9201,127.0.0.1:9202 \
//	    -chaos-script degrade-kv-link -addr 127.0.0.1:8080
//
// SIGINT/SIGTERM begin a graceful drain: new work is rejected (429/503
// responses), in-flight streams run to completion (bounded by
// -drain-timeout), then the process exits 0. Run with -h for the flag
// list; unknown -method/-role values exit with status 2 and
// list the valid names.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/hackkv/hack"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == nil {
		return
	}
	var ue usageError
	if errors.As(err, &ue) {
		if !ue.quiet {
			fmt.Fprintln(os.Stderr, "hackserved:", err)
		}
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, "hackserved:", err)
	os.Exit(1)
}

// usageError marks flag-style errors (unknown names, bad values) that
// exit with status 2 instead of 1, per the CLI convention. quiet marks
// errors the flag package already reported to stderr, so main does not
// print them twice.
type usageError struct {
	err   error
	quiet bool
}

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

// run executes the daemon for the given argument list: it binds the
// listener, announces the address on stdout, serves until SIGINT or
// SIGTERM, drains, and returns. It is the whole daemon minus process
// exit, so tests drive it without os/exec.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hackserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		method    = fs.String("method", "HACK", "serving method (kernel family)")
		workers   = fs.Int("prefill-workers", 2, "concurrent prefill workers, local and prefill roles (1 = deterministic single-worker mode)")
		batch     = fs.Int("batch", 8, "max continuous decode batch")
		queueCap  = fs.Int("queue", 64, "admission slots per prefill worker in the one shared queue, local and prefill roles (a full queue load-sheds)")
		maxNew    = fs.Int("max-new", 32, "per-request generated-token cap")
		decodePar = fs.Int("decode-par", 0, "decode-step goroutine fan-out (0 = size to batch, 1 = serial)")
		seed      = fs.Int64("seed", 1, "model weight seed")
		prefixB   = fs.Int64("prefix-cache-bytes", 0, "shared-prefix KV cache budget in bytes (0 disables; local and prefill roles)")
		drainFor  = fs.Duration("drain-timeout", 30*time.Second, "graceful-drain budget after SIGTERM")
		role      = fs.String("role", "local", "serving role: "+strings.Join(hack.Roles(), ", "))
		wire      = fs.String("wire", "127.0.0.1:0", "KV wire listen address (prefill/decode roles)")
		peerPre   = fs.String("peer-prefills", "", "comma-separated prefill wire addresses (router role)")
		peerDec   = fs.String("peer-decodes", "", "comma-separated decode wire addresses (router role)")
		chaosSc   = fs.String("chaos-script", "",
			"replay a named fault-injection script against the router's links (router role, dev/chaos drills): "+
				strings.Join(hack.ChaosScripts(), ", "))
		chaosSeed = fs.Int64("chaos-seed", 1, "deterministic seed for -chaos-script fault injection")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: usage already printed, exit 0
		}
		return usageError{err: err, quiet: true}
	}

	// Flag-style usage errors: report the valid names and exit 2.
	if _, err := hack.MethodNamed(*method); err != nil {
		return usageError{err: err}
	}
	if *workers < 0 || *batch < 0 || *queueCap < 0 || *maxNew < 0 || *decodePar < 0 || *prefixB < 0 {
		return usageError{err: fmt.Errorf("sizing flags must be >= 0")}
	}
	if *drainFor <= 0 {
		return usageError{err: fmt.Errorf("drain timeout %v must be positive", *drainFor)}
	}
	r, err := hack.ParseRole(*role)
	if err != nil {
		return usageError{err: err}
	}
	if *prefixB > 0 && r != hack.RoleLocal && r != hack.RolePrefill {
		return usageError{err: fmt.Errorf("-prefix-cache-bytes requires the local or prefill role (the tier runs where prefill runs)")}
	}
	if *chaosSc != "" {
		if r != hack.RoleRouter {
			return usageError{err: fmt.Errorf("-chaos-script requires the router role (faults are injected on the router's links)")}
		}
		valid := false
		for _, n := range hack.ChaosScripts() {
			valid = valid || n == *chaosSc
		}
		if !valid {
			return usageError{err: fmt.Errorf("unknown chaos script %q (valid: %s)",
				*chaosSc, strings.Join(hack.ChaosScripts(), ", "))}
		}
	}

	opts := []hack.Option{
		hack.WithMethod(*method),
		hack.WithServeConfig(hack.ServeConfig{
			ModelSeed:         *seed,
			PrefillWorkers:    *workers,
			MaxBatch:          *batch,
			QueueCap:          *queueCap,
			MaxNewTokens:      *maxNew,
			DecodeParallelism: *decodePar,
		}),
	}
	if *prefixB > 0 {
		opts = append(opts, hack.WithPrefixCache(*prefixB))
	}
	if r != hack.RoleLocal {
		opts = append(opts,
			hack.WithRole(r),
			hack.WithPeers(splitPeers(*peerPre), splitPeers(*peerDec)),
		)
		return runRole(r, *addr, *wire, *drainFor, *chaosSc, *chaosSeed, opts, stdout)
	}

	eng, err := hack.New(opts...)
	if err != nil {
		return err
	}
	srv, err := eng.Listen(context.Background())
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		// Make sure the runtime's goroutines don't outlive the failed
		// daemon.
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		return err
	}
	fmt.Fprintf(stdout, "hackserved: listening on http://%s (%s, %d prefill workers, batch %d)\n",
		ln.Addr(), *method, *workers, *batch)

	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err // listener failure before any signal
	case <-ctx.Done():
		stop()
		fmt.Fprintln(stdout, "hackserved: signal received, draining...")
		dctx, cancel := context.WithTimeout(context.Background(), *drainFor)
		defer cancel()
		drainErr := srv.Shutdown(dctx)
		hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer hcancel()
		_ = httpSrv.Shutdown(hctx)
		snap := srv.Metrics()
		fmt.Fprintf(stdout, "hackserved: drained (completed %d, canceled %d, tokens %d)\n",
			snap.Completed, snap.Canceled, snap.TokensStreamed)
		if drainErr != nil {
			return fmt.Errorf("drain: %w", drainErr)
		}
		return nil
	}
}

// splitPeers parses a comma-separated address list, dropping empties.
func splitPeers(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// runRole executes a disaggregated role until SIGINT/SIGTERM. Prefill
// and decode nodes speak the wire protocol on wireAddr and serve their
// health/metrics HTTP endpoint on httpAddr; the router serves the
// daemon's HTTP API on httpAddr and initiates wire connections to its
// peers.
func runRole(role hack.Role, httpAddr, wireAddr string, drainFor time.Duration, chaosScript string, chaosSeed int64, opts []hack.Option, stdout io.Writer) error {
	dc := hack.DisaggConfig{WireAddr: wireAddr, ChaosScript: chaosScript, ChaosSeed: chaosSeed}
	if role != hack.RoleRouter {
		// The node serves its own /healthz and /metrics on the daemon's
		// HTTP address.
		dc.HTTPAddr = httpAddr
	}
	eng, err := hack.New(append(opts, hack.WithDisaggConfig(dc))...)
	if err != nil {
		return err
	}
	ds, err := eng.ListenDisagg(context.Background())
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if role != hack.RoleRouter {
		fmt.Fprintf(stdout, "hackserved: %s listening wire=%s http=http://%s\n",
			role, ds.WireAddr(), ds.HTTPAddr())
		<-ctx.Done()
		stop()
		fmt.Fprintf(stdout, "hackserved: signal received, draining...\n")
		err := ds.Close()
		fmt.Fprintf(stdout, "hackserved: %s drained\n", role)
		return err
	}

	ln, err := net.Listen("tcp", httpAddr)
	if err != nil {
		ds.Close()
		return err
	}
	fmt.Fprintf(stdout, "hackserved: router listening on http://%s (%d decode replicas)\n",
		ln.Addr(), len(ds.Report().Replicas))
	if chaosScript != "" {
		fmt.Fprintf(stdout, "hackserved: chaos script %q replaying against the router's links (seed %d)\n",
			chaosScript, chaosSeed)
	}
	httpSrv := &http.Server{Handler: ds.Handler(), ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	select {
	case err := <-serveErr:
		ds.Close()
		return err
	case <-ctx.Done():
		stop()
		fmt.Fprintln(stdout, "hackserved: signal received, draining...")
		hctx, hcancel := context.WithTimeout(context.Background(), drainFor)
		defer hcancel()
		_ = httpSrv.Shutdown(hctx)
		err := ds.Close()
		rep := ds.Report()
		fmt.Fprintf(stdout, "hackserved: router drained (completed %d, failed %d, retries %d)\n",
			rep.Completed, rep.Failed, rep.Retries)
		return err
	}
}
