package seculator

import (
	"context"

	"seculator/internal/runner"
	"seculator/internal/trace"
	"seculator/internal/widen"
	"seculator/internal/workload"
)

// IntersperseDummy builds a Seculator+ noise schedule: after every `period`
// real layers, one decoy layer from the dummy network is inserted. The
// result is an execution schedule for RunLayerScheduleContext (decoys need
// not chain with the victim).
func IntersperseDummy(real, dummy Network, period int) ([]Layer, error) {
	return widen.Intersperse(real, dummy, period)
}

// RunLayerScheduleContext simulates an arbitrary layer schedule (e.g. a
// dummy-interspersed execution) on a design, with cancellation between
// layers.
func RunLayerScheduleContext(ctx context.Context, name string, layers []Layer, d Design, cfg Config) (Result, error) {
	return runner.RunLayers(ctx, name, layers, d, cfg)
}

// CaptureLayerTrace records the address trace of a layer schedule.
func CaptureLayerTrace(name string, layers []Layer, d Design, cfg Config) (*MemoryTrace, error) {
	return trace.CaptureLayers(context.Background(), name, layers, d, cfg)
}

// PreprocStyle is the computation style of an image pre-processing stage
// (Tables 8-10).
type PreprocStyle = workload.PreprocStyle

// Pre-processing styles of Section 5.2.1.
const (
	// PreprocStyle1 transforms each channel independently.
	PreprocStyle1 = workload.Style1
	// PreprocStyle2 folds all channels into one output channel.
	PreprocStyle2 = workload.Style2
	// PreprocStyle3 folds all channels into several transformed outputs.
	PreprocStyle3 = workload.Style3
)

// PreprocStage builds one pre-processing layer of the given style.
func PreprocStage(name string, style PreprocStyle, c, h, w, r, k int) (Layer, error) {
	return workload.PreprocStage(name, style, c, h, w, r, k)
}

// PreprocPipeline builds a camera-style pre-processing pipeline exercising
// all three styles over an h x w RGB image.
func PreprocPipeline(h, w int) (Network, error) {
	return workload.PreprocPipeline(h, w)
}
