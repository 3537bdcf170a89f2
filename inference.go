package seculator

import (
	"context"

	"seculator/internal/attack"
	"seculator/internal/nn"
	"seculator/internal/secure"
	"seculator/internal/trace"
	"seculator/internal/workload"
)

// Tensor is a dense int32 activation volume (channel-major, row-major);
// integer arithmetic keeps the tiled secure execution bit-comparable to the
// direct reference.
type Tensor = nn.Tensor

// NewTensor allocates a zero activation tensor.
func NewTensor(chans, h, w int) *Tensor { return nn.NewTensor(chans, h, w) }

// ModelWeights is the filter tensor of one layer.
type ModelWeights = nn.Weights

// RandomModel builds deterministic random weights and input for a network.
func RandomModel(net Network, seed int64) (*Tensor, []*ModelWeights) {
	return nn.RandomModel(net, seed)
}

// ReferenceInference runs the network through the direct (unprotected)
// reference computation — the golden model.
func ReferenceInference(net Network, in *Tensor, weights []*ModelWeights) (*Tensor, error) {
	return nn.ForwardNetwork(net, in, weights)
}

// InferenceResult is the outcome of a secure functional inference.
type InferenceResult = secure.Result

// SecureInferenceHook lets callers (tests, demos) interpose an attacker
// between execution phases; see secure.Hook.
type SecureInferenceHook = secure.Hook

// InferenceOptions tunes a secure functional inference.
type InferenceOptions struct {
	// Hook, when non-nil, interposes an attacker between execution phases.
	Hook SecureInferenceHook
	// Injector, when non-nil, attaches a fault injector to the DRAM's
	// functional read/write paths.
	Injector FaultInjector
	// Retry overrides the layer-level recovery policy; the zero value uses
	// DefaultRetryPolicy() and NoRetryPolicy() disables recovery.
	Retry RetryPolicy
}

// SecureInferenceContext executes the network functionally through
// Seculator's full protection path — AES-CTR encrypted DRAM, FSM-generated
// version numbers, XOR-MAC layer verification — and returns the decrypted
// output, which is guaranteed (and tested) to be bit-identical to
// ReferenceInference. ctx cancels the run; opts can attach an attack hook
// (any resulting integrity violation aborts the run), a fault injector and
// the layer-level detect-and-recover policy. The returned result carries
// per-run recovery statistics.
func SecureInferenceContext(ctx context.Context, net Network, in *Tensor, weights []*ModelWeights, opts InferenceOptions) (InferenceResult, error) {
	x := secure.NewExecutor()
	x.AfterPhase = opts.Hook
	x.Injector = opts.Injector
	if opts.Retry != (RetryPolicy{}) {
		x.Retry = opts.Retry
	}
	return x.Run(ctx, net, in, weights)
}

// TransformerConfig shapes an encoder-only transformer built from the tiled
// matmuls of Table 4.
type TransformerConfig = workload.TransformerConfig

// BERTBase returns the canonical BERT-base encoder shape (~85 M params).
func BERTBase() TransformerConfig { return workload.BERTBase() }

// TinyTransformer returns a small configuration for quick experiments.
func TinyTransformer() TransformerConfig { return workload.TinyTransformer() }

// Transformer builds the encoder network for a configuration.
func Transformer(cfg TransformerConfig) (Network, error) { return workload.Transformer(cfg) }

// MemoryTrace is a captured address trace with attacker-view analyses
// (footprints, boundary inference, entropy).
type MemoryTrace = trace.Trace

// CaptureTraceContext simulates (network, design) and records the
// bus-visible address trace, with cancellation between layers.
func CaptureTraceContext(ctx context.Context, n Network, d Design, cfg Config) (*MemoryTrace, error) {
	return trace.Capture(ctx, n, d, cfg)
}

// DetectionCell is one (design, attack) outcome of the behavioural
// detection matrix.
type DetectionCell = attack.DetectionCell

// DetectionAttack names one attack of the matrix.
type DetectionAttack = attack.MatrixAttack

// The detection-matrix attack rows, in Table 5 order. AttackReplay restores
// a stale ciphertext alone (a stale-VN fault); the WithMAC variants also
// restore/swap the matching MAC lines — the coherent attacks only
// layer-level verification catches structurally.
const (
	AttackNone          = attack.AttackNone
	AttackTamper        = attack.AttackTamper
	AttackReplay        = attack.AttackReplay
	AttackReplayWithMAC = attack.AttackReplayWithMAC
	AttackSplice        = attack.AttackSplice
	AttackSpliceWithMAC = attack.AttackSpliceWithMAC
)

// DetectionMatrixContext mounts tamper/replay/splice attacks (with and
// without coherent MAC manipulation) against every design's functional
// memory and reports who detects what — the behavioural validation of
// Table 5. Cancellation is observed between cells.
func DetectionMatrixContext(ctx context.Context, s AttackScenario) ([]DetectionCell, error) {
	return attack.DetectionMatrix(ctx, s)
}

// DetectionMatrixTable renders the matrix.
func DetectionMatrixTable(s AttackScenario) (Table, error) {
	cells, err := attack.DetectionMatrix(context.Background(), s)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Detection matrix (behavioural Table 5)",
		Header: []string{"design"},
		Notes: []string{
			"DETECTED: integrity error raised; SILENT-CORRUPT: consumer got wrong data unnoticed; ok: honest run",
		},
	}
	for _, a := range attack.MatrixAttacks() {
		t.Header = append(t.Header, a.String())
	}
	rows := map[Design][]string{}
	var order []Design
	for _, c := range cells {
		if _, ok := rows[c.Design]; !ok {
			rows[c.Design] = []string{c.Design.String()}
			order = append(order, c.Design)
		}
		cell := "ok"
		switch {
		case c.Detected:
			cell = "DETECTED"
		case c.Corrupted:
			cell = "SILENT-CORRUPT"
		}
		rows[c.Design] = append(rows[c.Design], cell)
	}
	for _, d := range order {
		t.Rows = append(t.Rows, rows[d])
	}
	return t, nil
}
