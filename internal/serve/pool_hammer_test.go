package serve_test

import (
	"fmt"
	"sync"
	"testing"

	"seculator"
	"seculator/internal/serve"
	"seculator/internal/workload"
)

// pool_hammer_test.go — the serving tier's view of run-state pooling. The
// secure package's conformance oracle proves sequential reuse is clean;
// this hammer drives one server with concurrent HTTP requests across
// different networks and seeds, so pooled runtimes are acquired, scrubbed,
// and re-acquired under real contention (scheduler workers, residency
// cache, JSON arenas all live). Run it under -race: the pooled slabs, the
// preload hand-off, and the serve-layer buffer pools are all in play.
// Functionally, every response checksum must match the per-(network, seed)
// reference computation — a dirty pooled state anywhere in the stack shows
// up as a checksum mismatch.

func TestServePoolHammer(t *testing.T) {
	_, c := newTestServer(t, serve.Options{})

	type caseKey struct {
		network string
		seed    int64
	}
	cases := []caseKey{
		{"Mini", 1}, {"Mini", 2}, {"Mini/2", 1}, {"Mini/2", 5}, {"Mini", 99},
	}
	goldens := make(map[caseKey]uint64, len(cases))
	for _, ck := range cases {
		net, err := serve.ResolveNetwork(ck.network)
		if err != nil {
			t.Fatal(err)
		}
		goldens[ck] = referenceSum(t, net, ck.seed)
	}

	const goroutines = 8
	iters := 6
	if testing.Short() {
		iters = 2
	}
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				ck := cases[(g+it)%len(cases)]
				resp, err := c.Infer(ctxT(t), serve.InferRequest{Network: ck.network, Seed: ck.seed})
				if err != nil {
					errc <- fmt.Errorf("g%d it%d %s/%d: %v", g, it, ck.network, ck.seed, err)
					return
				}
				if resp.OutputSum != goldens[ck] {
					errc <- fmt.Errorf("g%d it%d %s/%d: checksum %#x, reference %#x — pooled state leaked across requests",
						g, it, ck.network, ck.seed, resp.OutputSum, goldens[ck])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func referenceSum(t *testing.T, net workload.Network, seed int64) uint64 {
	t.Helper()
	in, ws := seculator.RandomModel(net, seed)
	golden, err := seculator.ReferenceInference(net, in, ws)
	if err != nil {
		t.Fatal(err)
	}
	return serve.OutputSum(golden)
}
