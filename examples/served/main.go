// Live serving through the public API: start the continuous-batching
// runtime with Engine.Listen, submit concurrent requests that run
// through the real homomorphic HACK kernels, stream their tokens, watch
// the live metrics, and drain gracefully.
//
//	go run ./examples/served
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"github.com/hackkv/hack"
)

func main() {
	eng, err := hack.New(
		hack.WithMethod("HACK"),
		hack.WithServeConfig(hack.ServeConfig{
			PrefillWorkers: 2,
			MaxBatch:       8,
			MaxNewTokens:   12,
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := eng.Listen(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving %s with the %s kernels\n\n", srv.Model().Name, eng.Method().Name)

	// Eight concurrent clients, each streaming its own generation. The
	// decode batcher re-forms the batch every step, so these all share
	// batched decode iterations.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prompt := []int{1 + i, 2 + i, 3 + i, 4 + i, 5 + i}
			st, err := srv.Submit(context.Background(), hack.GenRequest{
				Prompt: prompt, MaxNewTokens: 8, Seed: int64(i),
			})
			if err != nil {
				log.Printf("request %d: %v", i, err)
				return
			}
			var toks []int
			for tok := range st.Tokens() {
				toks = append(toks, tok.ID)
			}
			if err := st.Err(); err != nil {
				log.Printf("request %d: %v", i, err)
				return
			}
			fmt.Printf("request %d: %v\n", i, toks)
		}(i)
	}
	wg.Wait()

	snap := srv.Metrics()
	fmt.Printf("\ncompleted %d requests, %d tokens; batch occupancy %.2f; "+
		"ttft p50 %.1fms p99 %.1fms; tbt p50 %.2fms\n",
		snap.Completed, snap.TokensStreamed, snap.BatchOccupancy,
		1e3*snap.TTFT.P50, 1e3*snap.TTFT.P99, 1e3*snap.TBT.P50)

	// Determinism: the same (prompt, seed) streams the same bytes no
	// matter what it was batched with.
	again, err := srv.Generate(context.Background(), hack.GenRequest{
		Prompt: []int{1, 2, 3, 4, 5}, MaxNewTokens: 8, Seed: 0,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("request 0 replayed: %v\n", again)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("drained cleanly")
}
