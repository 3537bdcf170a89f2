// Package seculator is a from-scratch Go reproduction of "Seculator: A Fast
// and Secure Neural Processing Unit" (Shrivastava & Sarangi, HPCA 2023): a
// secure-NPU architecture simulator with functional cryptography.
//
// Seculator protects a DNN accelerator's off-chip data with three ideas:
//
//   - Deterministic version-number generation: the VN sequence of any layer
//     collapses to the master equation (1^η, 2^η, …, κ^η)^ρ, regenerated at
//     runtime by a tiny FSM (package internal/vngen) instead of the VN
//     tables, counter caches or host schedulers of prior work.
//   - Layer-level XOR-MAC integrity: per-block SHA-256 MACs fold into four
//     256-bit registers, and one check — MAC_W = MAC_FR ⊕ MAC_R — verifies
//     a whole layer (package internal/mac).
//   - Seculator+: layer widening and dummy-network noise against model
//     extraction via address traces (package internal/widen).
//
// The package simulates six designs (Baseline, SGX-like Secure, TNPU,
// GuardNN, Seculator, Seculator+) over five CNN benchmarks and regenerates
// the shape of every table and figure in the paper's evaluation; see
// EXPERIMENTS.md for the paper-vs-measured record.
//
// Every long-running entry point takes a context.Context first and stops
// when it is cancelled. Quick start:
//
//	ctx := context.Background()
//	cfg := seculator.DefaultConfig()
//	base, _ := seculator.RunContext(ctx, seculator.ResNet18(), seculator.Baseline, cfg)
//	sec, _ := seculator.RunContext(ctx, seculator.ResNet18(), seculator.Seculator, cfg)
//	fmt.Printf("Seculator overhead: %.1f%%\n", (1/sec.Performance(base)-1)*100)
package seculator

import (
	"context"

	"seculator/internal/mem"
	"seculator/internal/npu"
	"seculator/internal/protect"
	"seculator/internal/runner"
	"seculator/internal/workload"
)

// Design identifies one of the six simulated protection schemes (Table 5).
type Design = protect.Design

// The simulated designs, in Table 5 order.
const (
	// Baseline is the unprotected accelerator.
	Baseline = protect.Baseline
	// Secure is the SGX-Client-style configuration (counters + Merkle
	// tree + per-block MACs).
	Secure = protect.Secure
	// TNPU uses a tensor table for VNs and an on-chip MAC cache.
	TNPU = protect.TNPU
	// GuardNN uses host-scheduled VNs and uncached per-block MACs.
	GuardNN = protect.GuardNN
	// Seculator is the paper's design: FSM VNs + layer-level XOR-MACs.
	Seculator = protect.Seculator
	// SeculatorPlus adds model-extraction countermeasures.
	SeculatorPlus = protect.SeculatorPlus
)

// Designs returns all simulated designs in Table 5 order.
func Designs() []Design { return protect.Designs() }

// DesignProperties is the Table 5 security-feature row of a design.
type DesignProperties = protect.Properties

// PropertiesOf returns the Table 5 row for a design.
func PropertiesOf(d Design) DesignProperties { return protect.PropertiesOf(d) }

// Config collects every model parameter: the NPU fabric (Table 1), the
// DRAM model, and the protection machinery.
type Config = runner.Config

// NPUConfig describes the compute fabric (PE array, global buffer, clock).
type NPUConfig = npu.Config

// DRAMConfig describes the memory model.
type DRAMConfig = mem.Config

// ProtectParams are the protection-machinery knobs (cache sizes, crypto
// latencies, host round trips).
type ProtectParams = protect.Params

// DefaultConfig returns the paper's Table 1 system: a 32x32 PE array at
// 2.75 GHz with a 240 KB global buffer, dual-channel DDR4 at 100 cycles,
// an 8 KB MAC cache and a 4 KB counter cache.
func DefaultConfig() Config { return runner.DefaultConfig() }

// Layer is one network layer (shape + kernel + stride).
type Layer = workload.Layer

// LayerType classifies a layer.
type LayerType = workload.LayerType

// Layer types.
const (
	// Conv is a standard convolution.
	Conv = workload.Conv
	// Depthwise is a depthwise convolution.
	Depthwise = workload.Depthwise
	// Pointwise is a 1x1 convolution.
	Pointwise = workload.Pointwise
	// FC is a fully connected layer.
	FC = workload.FC
	// Pool is a pooling layer.
	Pool = workload.Pool
)

// Network is an ordered list of layers.
type Network = workload.Network

// The five benchmark networks of Table 1.
var (
	// MobileNet returns MobileNet-V1 (~4.2 M parameters).
	MobileNet = workload.MobileNet
	// ResNet18 returns ResNet-18 (~11 M parameters).
	ResNet18 = workload.ResNet18
	// AlexNet returns AlexNet (~62 M parameters).
	AlexNet = workload.AlexNet
	// VGG16 returns VGG-16 (~138 M parameters).
	VGG16 = workload.VGG16
	// VGG19 returns VGG-19 (~143 M parameters).
	VGG19 = workload.VGG19
)

// Benchmarks returns the five networks in the paper's order.
func Benchmarks() []Network { return workload.All() }

// NetworkByName looks a benchmark up by name ("MobileNet", "ResNet18",
// "AlexNet", "VGG16", "VGG19").
func NetworkByName(name string) (Network, error) { return workload.ByName(name) }

// Result is the outcome of one (network, design) simulation: total cycles,
// per-class DRAM traffic, per-layer breakdown and metadata-cache stats.
type Result = runner.Result

// LayerResult is the per-layer slice of a Result.
type LayerResult = runner.LayerResult

// RunContext simulates one network on one design. The simulation stops
// between layers when ctx is cancelled or its deadline passes.
func RunContext(ctx context.Context, n Network, d Design, cfg Config) (Result, error) {
	return runner.Run(ctx, n, d, cfg)
}

// RunAllContext simulates a network across several designs. Cancellation
// is observed between designs and between layers.
func RunAllContext(ctx context.Context, n Network, designs []Design, cfg Config) ([]Result, error) {
	return runner.RunAll(ctx, n, designs, cfg)
}
