package seculator

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// firstWeightFlip returns a hook that, once the model is loaded (phase -1),
// flips one bit of layer 0's first weight block. The planned layout puts
// the input region at line 0, then layer 0's output region, unwritten at
// that phase, then layer 0's weights: the first written line after the
// first gap. The flip persists in DRAM, so no re-fetch can repair it.
func firstWeightFlip(t *testing.T) func(phase int, d *DRAM) {
	return func(phase int, d *DRAM) {
		if phase != -1 {
			return
		}
		gap := false
		for addr := uint64(0); addr < 100000; addr++ {
			switch {
			case d.Peek(addr) == nil:
				gap = true
			case gap:
				d.Tamper(addr, 5, 0x20)
				return
			}
		}
		t.Error("no weight block found to flip")
	}
}

// TestNoRetryPolicyIsHonoured: NoRetryPolicy() passed through an options
// struct must disable recovery, not fall back to the default policy. A
// persistent weight flip costs the default policy's retries and none under
// NoRetryPolicy, at both functional entry points and in a fault campaign.
func TestNoRetryPolicyIsHonoured(t *testing.T) {
	net := demoNet()
	in, ws := RandomModel(net, 99)
	ctx := context.Background()
	want := map[string]int{"default": DefaultRetryPolicy().MaxRetries, "none": 0}
	for name, policy := range map[string]RetryPolicy{"default": DefaultRetryPolicy(), "none": NoRetryPolicy()} {
		res, err := SecureInferenceContext(ctx, net, in, ws, InferenceOptions{Hook: firstWeightFlip(t), Retry: policy})
		var ie *IntegrityError
		if !errors.As(err, &ie) || !ie.Persistent {
			t.Fatalf("inference, %s policy: got %v, want a persistent IntegrityError", name, err)
		}
		if res.Recovery.Retries != want[name] {
			t.Errorf("inference, %s policy: %d retries, want %d", name, res.Recovery.Retries, want[name])
		}

		sres, err := RunSecureSessionContext(ctx, net, DefaultConfig(), []byte("retry-policy-key"), SessionOptions{
			Input: in, Weights: ws, Hook: firstWeightFlip(t), Retry: policy,
		})
		if !errors.As(err, &ie) || !ie.Persistent {
			t.Fatalf("session, %s policy: got %v, want a persistent IntegrityError", name, err)
		}
		if sres.Recovery.Retries != want[name] {
			t.Errorf("session, %s policy: %d retries, want %d", name, sres.Recovery.Retries, want[name])
		}
	}

	// The campaign's seeded faults are detected at the same reads under
	// either policy; only the default repairs some of them.
	campaign := func(p RetryPolicy) FaultPoint {
		points, err := RunFaultCampaign(ctx, FaultCampaign{
			Faults: []FaultKind{FaultBurst}, Rates: []float64{0.02},
			Designs: []Design{Seculator}, Trials: 2, Seed: 42, Retry: p,
		})
		if err != nil {
			t.Fatal(err)
		}
		return points[0]
	}
	def, none := campaign(DefaultRetryPolicy()).Outcome, campaign(NoRetryPolicy()).Outcome
	if def.Recovered == 0 {
		t.Fatalf("default policy recovered nothing (%+v); the campaign exercises no retry", def)
	}
	if none.Recovered != 0 || none.Aborted != def.Detected() {
		t.Errorf("NoRetryPolicy campaign %+v: want all %d detections aborted, none recovered", none, def.Detected())
	}
}

// TestSecurityCoreReadsNoClock: detection and recovery are functions of the
// schedule, the keys and the data, never of elapsed time — a layer retry
// re-fetches and re-derives, it does not wait. So no non-test file of the
// security core may read a clock or sleep. The conformance harness is not
// core and polls goroutine exits on a timer; the serving tier paces
// clients and breakers on real time.
func TestSecurityCoreReadsNoClock(t *testing.T) {
	clock := map[string]bool{
		"Now": true, "Since": true, "Until": true, "Sleep": true, "NewTimer": true,
		"NewTicker": true, "After": true, "AfterFunc": true, "Tick": true,
	}
	core := []string{"crypto", "mac", "vngen", "mem", "protect", "secure", "resilience", "host", "fault", "attack"}
	fset := token.NewFileSet()
	scanned := 0
	for _, pkg := range core {
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("internal/%s: no Go files (%v)", pkg, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			scanned++
			name := ""
			for _, imp := range f.Imports {
				if imp.Path.Value == `"time"` {
					name = "time"
					if imp.Name != nil {
						name = imp.Name.Name
					}
				}
			}
			if name == "" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && clock[sel.Sel.Name] {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == name {
						t.Errorf("%s: calls time.%s", fset.Position(call.Pos()), sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
	if scanned == 0 {
		t.Fatal("scanned no files")
	}
}
