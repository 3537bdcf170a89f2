package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"

	"seculator/internal/protect"
	"seculator/internal/runner"
	"seculator/internal/workload"
)

// expected_sim.json holds the exact statistics of every (network, design)
// simulation of the Figure 7/8 sweep. The simulator is deterministic, so
// any difference is a changed model, not noise. Regenerate it with
// `go test ./benchmark -run TestExpectedSim -update` after an intended model
// change.
//
//go:embed expected_sim.json
var expectedSimJSON []byte

// simStats are the exact counts kept per run.
type simStats struct {
	Cycles         uint64 `json:"cycles"`
	TrafficBlocks  uint64 `json:"traffic_blocks"`
	MACCacheMisses uint64 `json:"mac_cache_misses"`
	CtrCacheMisses uint64 `json:"ctr_cache_misses"`
}

type expectedSim map[string]simStats

func loadExpectedSim() (expectedSim, error) {
	var e expectedSim
	if err := json.Unmarshal(expectedSimJSON, &e); err != nil {
		return nil, fmt.Errorf("expected_sim.json: %w", err)
	}
	return e, nil
}

func simKey(net string, d protect.Design) string { return net + "/" + d.String() }

func statsOf(r runner.Result) simStats {
	return simStats{
		Cycles:         uint64(r.Cycles),
		TrafficBlocks:  r.Traffic.Total(),
		MACCacheMisses: r.MACCache.Misses,
		CtrCacheMisses: r.CounterCache.Misses,
	}
}

func (e expectedSim) matches(r runner.Result) bool {
	want, ok := e[simKey(r.Network, r.Design)]
	return ok && want == statsOf(r)
}

// The paper's published Figure 7 numbers: the only reference the
// repository holds for the simulator's output.
const (
	paperSeculatorPerf = 1.000
	paperVsTNPUPct     = 16.0
	paperVsGuardNNPct  = 37.0
)

// fig7 derives the Figure 7 summary from one sweep's cycle counts, with
// the formulas bench_test.go and EXPERIMENTS.md E9 use: mean over the five
// networks of baseline cycles ÷ design cycles, and the ratio of those means
// for the speed-ups.
func fig7(stats map[string]simStats) (normPerf, vsTNPUPct, errPct float64) {
	mean := func(d protect.Design) float64 {
		nets := workload.All()
		var sum float64
		for _, n := range nets {
			sum += float64(stats[simKey(n.Name, protect.Baseline)].Cycles) /
				float64(stats[simKey(n.Name, d)].Cycles)
		}
		return sum / float64(len(nets))
	}
	normPerf = mean(protect.Seculator)
	vsTNPUPct = (normPerf/mean(protect.TNPU) - 1) * 100
	vsGuardNNPct := (normPerf/mean(protect.GuardNN) - 1) * 100
	errPct = math.Max(math.Abs(normPerf-paperSeculatorPerf)*100,
		math.Max(math.Abs(vsTNPUPct-paperVsTNPUPct), math.Abs(vsGuardNNPct-paperVsGuardNNPct)))
	return normPerf, vsTNPUPct, errPct
}
