package seculator

import (
	"context"
	"fmt"

	"seculator/internal/energy"
	"seculator/internal/protect"
	"seculator/internal/runner"
	"seculator/internal/sweep"
	"seculator/internal/workload"
)

// GANGeneratorConfig shapes a DCGAN-style generator built from
// deconvolutions (zero-insertion upsample + convolution, Section 5.2).
type GANGeneratorConfig = workload.GANGeneratorConfig

// DCGAN returns the canonical generator shape (4x4x1024 -> 64x64x3).
func DCGAN() GANGeneratorConfig { return workload.DCGAN() }

// TinyGAN returns a small generator for quick experiments.
func TinyGAN() GANGeneratorConfig { return workload.TinyGAN() }

// GANGenerator builds the generator network for a configuration.
func GANGenerator(cfg GANGeneratorConfig) (Network, error) { return workload.GANGenerator(cfg) }

// Deconv builds a deconvolution as the paper prescribes: an Upsample layer
// followed by an ordinary convolution.
func Deconv(name string, c, h, w, k, r, up int) ([]Layer, error) {
	return workload.Deconv(name, c, h, w, k, r, up)
}

// EnergyModel holds the per-operation energy constants of the energy
// extension.
type EnergyModel = energy.Model

// EnergyBreakdown is a per-inference energy estimate.
type EnergyBreakdown = energy.Breakdown

// DefaultEnergyModel returns literature/Table 6 constants.
func DefaultEnergyModel() EnergyModel { return energy.DefaultModel() }

// EnergyTable runs the network across the designs and renders per-design
// energy breakdowns (extension experiment E17).
func EnergyTable(n Network, cfg Config) (Table, error) {
	rs, err := runner.RunAll(context.Background(), n, protect.Designs(), cfg)
	if err != nil {
		return Table{}, err
	}
	bs, over, err := energy.Compare(n, rs)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  fmt.Sprintf("Energy per inference — %s", n.Name),
		Header: []string{"design", "DRAM (mJ)", "compute (mJ)", "crypto (uJ)", "total (mJ)", "vs baseline"},
		Notes:  []string{"DRAM access energy dominates; metadata traffic is an energy tax in the same proportion as bandwidth"},
	}
	for i, b := range bs {
		t.Rows = append(t.Rows, []string{
			b.Design,
			fmt.Sprintf("%.2f", b.DRAMnJ/1e6),
			fmt.Sprintf("%.2f", b.MACnJ/1e6),
			fmt.Sprintf("%.1f", b.CryptonJ/1e3),
			fmt.Sprintf("%.2f", b.Total()/1e6),
			fmt.Sprintf("%.3fx", over[i]),
		})
	}
	return t, nil
}

// SweepResult is a sensitivity sweep over one system parameter.
type SweepResult = sweep.Result

// SweepBandwidthContext re-measures the design comparison across DRAM
// bandwidths, with cancellation between points.
func SweepBandwidthContext(ctx context.Context, n Network, cfg Config, values []float64) (SweepResult, error) {
	return sweep.Bandwidth(ctx, n, cfg, values)
}

// SweepGlobalBufferContext sweeps the on-chip buffer capacity (KB), with
// cancellation between points.
func SweepGlobalBufferContext(ctx context.Context, n Network, cfg Config, kbs []int) (SweepResult, error) {
	return sweep.GlobalBuffer(ctx, n, cfg, kbs)
}

// SweepPEArrayContext sweeps the (square) systolic array extent, with
// cancellation between points.
func SweepPEArrayContext(ctx context.Context, n Network, cfg Config, dims []int) (SweepResult, error) {
	return sweep.PEArray(ctx, n, cfg, dims)
}

// SweepMACCacheContext sweeps the MAC-cache size (KB) of the per-block
// designs, with cancellation between points.
func SweepMACCacheContext(ctx context.Context, n Network, cfg Config, kbs []int) (SweepResult, error) {
	return sweep.MACCache(ctx, n, cfg, kbs)
}

// SweepTable renders a sweep result.
func SweepTable(r SweepResult) Table {
	t := Table{
		Title:  fmt.Sprintf("Sensitivity: %s (%s)", r.Name, r.Unit),
		Header: []string{r.Unit},
	}
	for _, d := range r.Designs {
		t.Header = append(t.Header, d.String())
	}
	for _, p := range r.Points {
		row := []string{fmt.Sprintf("%g", p.Param)}
		for _, d := range r.Designs {
			row = append(row, fmt.Sprintf("%.3f", p.Performance[d]))
		}
		t.Rows = append(t.Rows, row)
	}
	lo, hi := r.AdvantageRange()
	t.Notes = append(t.Notes, fmt.Sprintf("Seculator advantage over TNPU across the sweep: %.1f%% .. %.1f%%", lo*100, hi*100))
	return t
}
