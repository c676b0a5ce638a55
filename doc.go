// Package hack is the public API of a from-scratch Go reproduction of
// "HACK: Homomorphic Acceleration via Compression of the Key-Value
// Cache for Disaggregated LLM Inference" (SIGCOMM 2025).
//
// # Engine
//
// Engine simulates a disaggregated prefill/decode serving cluster.
// Build one with New and functional options, then Run a Workload:
//
//	eng, err := hack.New(
//		hack.WithModel("L"),            // Llama-3.1 70B
//		hack.WithGPU("A10G"),           // prefill instance pool
//		hack.WithMethod("HACK"),        // serving method
//		hack.WithReplicas(5, 4),        // prefill x decode replicas
//		hack.WithPipeline(true),        // overlap transfer with prefill
//	)
//	res, err := eng.Run(ctx, hack.Workload{
//		Dataset: "Cocktail", RPS: 0.5, Requests: 200, Seed: 42,
//	})
//
// Run honors ctx cancellation and, with WithStream, invokes a callback
// as each simulated request completes. The Result carries every
// request's JCT decomposition (queue, prefill, quantization,
// communication, dequantization-or-approximation, decode) and serving
// latencies (TTFT, TBT), plus the AvgJCT / P50JCT / P99JCT / AvgTimes
// / AvgRatios / Summarize aggregations the paper's figures report.
// Further options: WithDecodeGPU, WithMaxBatch, WithMemCapFrac,
// WithScheduler, WithCostParams, WithModelSpec, WithMethodProfile.
//
// # SLO-aware serving
//
// WithSLO(ttft, tbt) sets latency targets in seconds; Engine.Serve runs
// a workload and returns a ServeReport with throughput, nearest-rank
// p50/p90/p99 latency summaries and SLO attainment. Beyond the paper's
// shortest-queue policy the schedulers include LoadAware (FlowKV-style
// routing on prefill drain + pending KV bytes) and SLOAware, which also
// picks each request's compression method from the WithAdmitMethods
// class ladder so interactive traffic keeps fidelity while long prompts
// are compressed to protect the targets. WithPrefillChunk enables
// Sarathi-style chunked prefill and WithPreemption decode-side eviction
// with KV re-transfer; see examples/slo and the scenario-test harness
// under internal/sim.
//
// # Live serving
//
// Engine.Listen starts the execution counterpart of the simulator: a
// concurrent serving runtime (internal/serve) that actually runs
// requests through the numeric transformer and the engine method's
// kernels — the homomorphic HACK path for HACK-family methods — under
// continuous batching. Arrivals wait in one FIFO admission queue that
// every prefill worker pulls from, the decode batcher re-forms its batch
// every step, a full admission queue load-sheds with ErrQueueFull, and
// Shutdown drains gracefully (ErrDraining for late submissions):
//
//	srv, err := eng.Listen(ctx)
//	st, err := srv.Submit(ctx, hack.GenRequest{Prompt: []int{1, 2, 3}, MaxNewTokens: 8})
//	for tok := range st.Tokens() { ... }  // streamed, ctx-cancellable
//	snap := srv.Metrics()                 // TTFT/TBT percentiles, queue depth, batch occupancy
//	err = srv.Shutdown(ctx)               // graceful drain
//
// WithServeConfig sizes the runtime (prefill workers, decode batch,
// queue bounds, token caps, the numeric model — Toy by default, since
// catalog-scale specs are priced, not executed). Streams are
// deterministic per (prompt, seed) regardless of batch composition;
// with one prefill worker and serial decode stepping the runtime is
// byte-identical across reruns. cmd/hackserved wraps a Server in an
// HTTP daemon (streamed POST /v1/generate, GET /metrics, GET /healthz,
// SIGTERM graceful drain); see examples/served for the library form.
//
// # HTTP serving surface
//
// Server.Handler and DisaggServer.Handler mount the same HTTP layer
// (internal/api) over either role, so the local daemon and the
// disaggregated router expose one surface: the streamed NDJSON
// POST /v1/generate, an OpenAI-compatible POST /v1/completions and
// POST /v1/chat/completions (both supporting "stream":true server-sent
// events with a data: [DONE] terminator and usage accounting in the
// final chunk), GET /v1/models fed by the model and method registries,
// and the shared /metrics (JSON, or Prometheus text under content
// negotiation) and /healthz routes. Text is mapped into the served
// model's token-id space by a deterministic tokenizer shim whose
// round trip is exact, so an OpenAI request's emitted token ids are
// byte-identical to the equivalent /v1/generate call per (prompt,
// seed) on every role. Errors share one OpenAI-style envelope
// ({"error":{"type","message","code"}}): queue-full load sheds are
// 429, draining and fleet unavailability 503, validation 400. A client
// disconnecting mid-stream cancels the request context through to the
// engine's cancellation path. The Dockerfile and docker-compose.yml at
// the repo root boot the full router+prefill+decode fleet with the
// router's surface on :8080.
//
// WithPrefixCache (-prefix-cache-bytes on the daemon) enables the
// shared-prefix KV tier: quantized KV pages of Π tokens from completed
// prefills are indexed by prompt prefix, and a
// request sharing a cached prefix restores them and skips prefill over
// the matched span — streaming tokens byte-identical to its own cold
// run and to a deployment without the tier, whichever prompt length the
// pages were cut from: every stochastic-rounding draw is a pure
// function of (seed, operand, absolute position). Eviction is
// ref-counted LRU under the byte budget; the hit / miss /
// tokens-reused / bytes-saved counters appear as Snapshot.PrefixCache.
// Requires a homomorphic method with requantization elimination. The
// tier runs where prefill runs: the local role and RolePrefill host it;
// RoleDecode and RoleRouter refuse it.
//
// # Disaggregated serving
//
// WithRole splits that runtime across real processes over a TCP KV
// wire, reproducing the paper's disaggregated deployment shape:
// prefill and decode nodes are one node type around the same serving
// runtime as Listen, and the role only labels the node's handshake.
// RolePrefill nodes run prefills on the runtime's admission queue and
// prefill workers (sized by WithServeConfig, with the prefix tier when
// WithPrefixCache is set) and ship each head's quantized KV pages as
// CRC-checked wire frames — the same page format the prefix tier
// caches, with no quantizer state to replay; RoleDecode replicas
// reconstruct the cache into the continuous-batching loop; a
// RoleRouter fronts the deployment, moves a prefill job on to the next
// prefill node when one is full or draining, and places decodes with
// load-aware placement
// (pending KV bytes + in-flight, the simulator's LoadAware signals),
// drain awareness, and retry/failover. A replica's circuit breaker and
// drain state are its whole health, both fed by the router's own wire
// jobs and handshakes; the router polls no /healthz, which nodes still
// serve for docker-compose and other orchestrators. The
// router relays and logs the KV frames: each is forwarded to the decode
// replica as it lands, and a failover replays the log on a fresh
// replica without duplicating or dropping tokens:
//
//	router, err := eng.ListenDisagg(ctx) // eng built with WithRole(hack.RoleRouter),
//	                                     // WithPeers(prefills, decodes)
//	st, err := router.Submit(ctx, hack.RoutedRequest{Prompt: []int{1, 2, 3}, MaxNewTokens: 8})
//	for tok := range st.Tokens() { ... } // byte-identical to the local runtime
//	rep := router.Report()               // per-replica occupancy, link KV bytes, retries
//
// The handshake carries method, model spec and seed, so mismatched
// nodes refuse to pair (ErrHandshakeRefused) rather than silently
// diverge. WithDisaggConfig sets addresses and chaos drills;
// cmd/hackserved exposes the same roles as a daemon
// (-role prefill|decode|router).
//
// # Fault tolerance and chaos testing
//
// The wire treats the network as hostile. A corrupt frame surfaces as
// a typed checksum error and a missed per-frame deadline as a typed
// wire timeout; both are link faults, so the router retries them —
// under jittered exponential backoff, bounded by an attempt cap and a
// wall-clock budget — replaying the logged KV transfer on another
// replica with token streams deduplicated by index. Repeated link
// failures trip a per-replica circuit breaker (consecutive failures
// open it; after a cooldown a half-open probe decides) that steers
// placement away until the router's redial, every cooldown, completes
// a handshake and re-closes it; breaker state rides DisaggReport.Replicas and the
// router's Prometheus metrics. Timeouts, retry limits and breaker
// thresholds are fixed defaults. This is the runtime's only breaker:
// the shared-prefix tier is in-process, and a tier error falls back to
// a cold prefill instead of failing the request.
//
// DisaggConfig.ChaosScript (the -chaos-script router flag) replays a
// named fault script — ChaosScripts() lists kill-decode,
// degrade-kv-link, partition-heal, corrupt-frame — against the
// router's own links through a deterministic, seed-driven injector
// (ChaosSeed): latency, bandwidth caps, bit flips, resets, half-open
// stalls, partitions, then heal. Scripted kills are modeled as
// partitions (a router cannot stop a remote process). Streams must
// still complete byte-identically; the injector's chaos_* counters
// join the router's /metrics.
//
// # Sweeps
//
// RunSweep executes a declarative grid of Engine configurations — the
// paper's method × dataset × GPU × load evaluation matrices — on a
// bounded worker pool with context cancellation, per-cell panic
// isolation and streamed progress:
//
//	res, err := hack.RunSweep(ctx, hack.SweepSpec{
//		Methods:  []string{"Baseline", "HACK"},
//		Datasets: []string{"IMDb", "Cocktail"},
//		RPS:      []float64{0.5, 1.0},
//		Requests: 200, Seed: 42,
//	}, hack.SweepWorkers(8))
//	res.WriteMarkdown(os.Stdout, hack.MetricPeakMem) // the Table 5 pivot
//
// Determinism is a contract: per-cell trace seeds derive from the spec,
// cells differing only in method replay the same trace, and results are
// ordered by cell index regardless of completion order, so identical
// specs produce byte-identical WriteJSON reports at any worker count.
// CellResult carries each cell's JCT decomposition, peak decode memory
// and speedup over the baseline method; WriteCSV exports flat records
// and Tables/WriteMarkdown pivot method rows against dataset columns.
//
// # Registries
//
// Every serving method, dataset, GPU instance, model and experiment is
// a named registry entry; Methods, Datasets, GPUs, Models and
// Experiments enumerate the names, and MethodNamed, DatasetNamed,
// GPUNamed, ModelNamed and ExperimentNamed resolve them
// (case-insensitive; unknown names return an error listing the valid
// spellings). RunExperiment regenerates any paper table or figure by
// ID. Adding an entry is one Register call in the defining internal
// package — no switch statements.
//
// # Homomorphic kernel
//
// The paper's core primitive is exported directly: Quantize encodes a
// Matrix with the asymmetric b-bit stochastic quantizer (§5.2), and
// MatMul / MatMulTransB compute products on the quantized codes via the
// Eq. (4) correction without ever dequantizing, returning the result
// and an Ops work tally:
//
//	kq, _ := hack.Quantize(k, hack.AlongCols, hack.QuantConfig{
//		Bits: 2, Partition: 64, Rounding: hack.StochasticRounding, RNG: rng,
//	})
//	scores, ops := hack.MatMulTransB(qq, kq, hack.DefaultMatMulOptions())
//
// The kernels are packed, tiled, SIMD-accelerated (AVX2 where the CPU
// has it) and column-parallel, yet bit-identical to the retained scalar
// references MatMulScalar / MatMulTransBScalar at every setting of
// MatMulOptions.Parallelism (0 = one worker per CPU, 1 = serial).
// Prefill fans out one level up: every attention backend cuts a prompt
// longer than 64 tokens into 64-row query tiles that run on up to one
// worker per CPU, each with serial kernels, and its output is
// bit-identical at any worker count.
// MatMulInto / MatMulTransBInto and QuantizeInto reuse caller-supplied
// storage so per-token serving loops run allocation-free; see the
// README's Performance section and cmd/kernelbench (BENCH_kernels.json)
// for the measured speedups. Engines thread the parallelism knob to
// derived numeric configurations via WithKernelParallelism and
// Engine.HACKAttentionConfig.
//
// # Numeric toolkit
//
// The accuracy-experiment substrate is exported for library use: the
// per-head attention backends (ExactAttention, FP16Attention,
// NewDequantAttention, NewHACKAttention), the seeded numeric
// Transformer they plug into, the quantized KVCache with SE and RQE,
// the KVFrame wire format, and the Rouge1 / EditSimilarity metrics.
//
// Executables: cmd/hackbench (all experiments), cmd/hacksim (one
// simulation), cmd/hacksweep (concurrent multi-config sweeps),
// cmd/hackquant (quantizer inspector), cmd/kernelbench (kernel hot-path
// measurements → BENCH_kernels.json); runnable examples live under
// examples/. See README.md for a quickstart.
package hack
