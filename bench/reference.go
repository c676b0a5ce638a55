package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/hackkv/hack"
)

// referenceServer starts a fresh local server of the workload's method
// and rounding mode that answers one request at a time: the reference
// every other path's streams are held to. The repo's defining invariant
// is that a (prompt, seed) streams the same token ids whichever path
// serves it — batched, disaggregated, prefix-restored, under load.
//
// On the prefix workload the reference server's cache holds every shared
// prefix, so it prefills each prefix cold once and resumes over those
// pages afterwards, never evicting: cold references throughout would
// cost twice the measured run (a 550-token prefill each, against warm
// requests of a sixth of that). The first coldReferences samples still
// get a server of their own each, so every run also holds restored pages
// to a cold prefill.
func referenceServer(ctx context.Context, w Workload) (*hack.Server, error) {
	opts := []hack.Option{hack.WithMethod(MethodHACK), hack.WithServeConfig(serveConfig(1, 1))}
	if w.Prefix {
		opts = append(opts, hack.WithPrefixCache(1<<30))
	}
	return listen(ctx, opts...)
}

// coldReferences is how many of a prefix workload's samples are
// answered by a cold server of their own: one round of the trace.
const coldReferences = strata

// References computes the reference stream of every sample's request on
// GOMAXPROCS reference servers, each answering one request at a time. It
// runs outside every timed interval.
func References(ctx context.Context, w Workload, samples []*Sample) ([][]int, error) {
	refs := make([][]int, len(samples))
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for k := 0; k < runtime.GOMAXPROCS(0); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv, err := referenceServer(ctx, w)
			if err != nil {
				fail(err)
				return
			}
			defer srv.Shutdown(ctx)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(samples) {
					return
				}
				r := samples[i].req
				answer := srv
				if w.Prefix && i < coldReferences {
					if answer, err = referenceServer(ctx, w); err != nil {
						fail(err)
						return
					}
				}
				ids, err := answer.Generate(ctx, hack.GenRequest{Prompt: r.Prompt, MaxNewTokens: r.MaxTokens, Seed: r.Seed})
				if answer != srv {
					_ = answer.Shutdown(ctx)
				}
				if err != nil {
					fail(fmt.Errorf("bench: reference for request %d: %w", r.ID, err))
					return
				}
				refs[i] = ids
			}
		}()
	}
	wg.Wait()
	return refs, firstErr
}
