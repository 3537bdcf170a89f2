package conformance

import (
	"context"
	"fmt"
	"sync"

	"seculator/internal/nn"
	"seculator/internal/protect"
	"seculator/internal/runner"
	"seculator/internal/secure"
	"seculator/internal/serve"
)

// ---------------------------------------------------------------------------
// Oracle 5: concurrent resident requests vs serial baseline.
// ---------------------------------------------------------------------------

// pipelineBatch is how many requests the oracle runs at once.
const pipelineBatch = 3

// CheckPipelinedBatch runs pipelineBatch requests at once through the
// serving tier's scheduler — every request attached to one shared
// verified-weight residency, each on its own worker running free of the
// others, so any layer of one request may overlap any layer of another —
// and demands each request be bit-identical to its own serial, non-resident
// baseline: same decrypted output, same OutputMAC, same per-layer register
// snapshots, same DRAM block count. This is oracle 2 extended across
// requests: interleaving and residency must both be unobservable.
func CheckPipelinedBatch(cfg Config) error {
	net := cfg.Net.Network()
	if err := net.Validate(); err != nil {
		return nil
	}
	rcfg := runner.DefaultConfig()
	ctx := context.Background()

	// One model (weights from cfg.Seed), per-request inputs — the serving
	// shape: requests share resident weights, activations differ.
	_, ws := nn.RandomModel(net, cfg.Seed)
	first := net.Layers[0]
	inputs := make([]*nn.Tensor, pipelineBatch)
	for i := range inputs {
		inputs[i] = nn.NewTensor(first.C, first.H, first.W)
		inputs[i].Randomize(cfg.Seed*31 + int64(i))
	}

	run := func(in *nn.Tensor, res *secure.WeightResidency) (runSnapshot, error) {
		x := secure.NewExecutor()
		x.NPU, x.DRAM = rcfg.NPU, rcfg.DRAM
		x.Residency = res
		var snap runSnapshot
		x.OnLayerMACs = func(_ int, regs protect.RegisterState) {
			snap.regs = append(snap.regs, regs)
		}
		r, err := x.Run(ctx, net, in, ws)
		if err != nil {
			return snap, err
		}
		snap.out = r.Output.Data
		snap.outputMAC = r.OutputMAC
		snap.blocks = r.Blocks
		return snap, nil
	}

	// Serial, non-resident baselines.
	base := make([]runSnapshot, pipelineBatch)
	for i, in := range inputs {
		snap, err := run(in, nil)
		if err != nil {
			return fmt.Errorf("serial baseline %d: %w", i, err)
		}
		base[i] = snap
	}

	res, err := secure.BuildWeightResidency(ctx, net, rcfg.NPU, rcfg.DRAM,
		secure.DefaultSecret, secure.DefaultRandom, ws)
	if err != nil {
		return fmt.Errorf("residency build: %w", err)
	}
	if err := res.Verify(); err != nil {
		return fmt.Errorf("fresh residency failed its own epoch check: %w", err)
	}

	// The concurrent replay: one worker per request, every request
	// resident. No run starts before all of them hold a worker, so they
	// overlap however small the network.
	sched := serve.NewScheduler(serve.SchedulerConfig{Workers: pipelineBatch, MaxQueue: 2 * pipelineBatch})
	defer sched.Close()

	snaps := make([]runSnapshot, pipelineBatch)
	errs := make([]error, pipelineBatch)
	var wg, started sync.WaitGroup
	started.Add(pipelineBatch)
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := sched.Submit(ctx, nil, func(context.Context) (any, error) {
				started.Done()
				started.Wait()
				snap, err := run(inputs[i], res)
				snaps[i] = snap
				return nil, err
			})
			errs[i] = err
		}(i)
	}
	wg.Wait()

	for i := range snaps {
		if errs[i] != nil {
			return fmt.Errorf("concurrent request %d: %w", i, errs[i])
		}
		if err := snaps[i].diff(base[i], "resident, concurrent"); err != nil {
			return fmt.Errorf("concurrent request %d vs serial baseline: %w", i, err)
		}
	}
	return nil
}
