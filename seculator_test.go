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

	"seculator/internal/mac"
)

func TestPublicRunRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	net := Network{
		Name: "tiny",
		Layers: []Layer{
			{Name: "c1", Type: Conv, C: 3, H: 16, W: 16, K: 8, R: 3, S: 3, Stride: 1},
			{Name: "c2", Type: Conv, C: 8, H: 16, W: 16, K: 8, R: 3, S: 3, Stride: 1},
		},
	}
	base, err := RunContext(context.Background(), net, Baseline, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := RunContext(context.Background(), net, Seculator, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p := sec.Performance(base); p <= 0 || p > 1 {
		t.Fatalf("Seculator normalized performance = %g", p)
	}
}

// TestNoContextlessTwins keeps the facade at one entry point per operation:
// an exported X beside an exported XContext is the same operation twice, and
// the context-first form is the one that stays.
func TestNoContextlessTwins(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
				funcs[fd.Name.Name] = true
			}
		}
	}
	if len(funcs) == 0 {
		t.Fatal("parsed no exported functions")
	}
	for name := range funcs {
		if base, ok := strings.CutSuffix(name, "Context"); ok && funcs[base] {
			t.Errorf("%s has a context-less twin %s", name, base)
		}
	}
}

func TestBenchmarksAndByName(t *testing.T) {
	if len(Benchmarks()) != 5 {
		t.Fatal("five benchmarks expected")
	}
	n, err := NetworkByName("AlexNet")
	if err != nil || n.Name != "AlexNet" {
		t.Fatalf("ByName: %v %v", n.Name, err)
	}
	if _, err := NetworkByName("unknown"); err == nil {
		t.Fatal("unknown network accepted")
	}
}

func TestDesignsSurface(t *testing.T) {
	if len(Designs()) != 6 {
		t.Fatal("six designs expected")
	}
	if !PropertiesOf(SeculatorPlus).MEAProtection {
		t.Fatal("Seculator+ must protect against MEA")
	}
}

func TestPatternSurface(t *testing.T) {
	tables := PatternTables()
	if len(tables) < 20 {
		t.Fatalf("pattern tables too small: %d rows", len(tables))
	}
	tr := Triplet{Eta: 2, Kappa: 3, Rho: 4}
	if ClassifyPattern(tr) != PatternMultiStep {
		t.Fatal("classification broken")
	}
	got, ok := CompressPattern(tr.Expand())
	if !ok || got != tr {
		t.Fatalf("compress round trip: %v %v", got, ok)
	}
	g := NewVNGenerator(tr)
	if v, ok := g.Next(); !ok || v != 1 {
		t.Fatal("generator broken")
	}
}

func TestExperimentFig4(t *testing.T) {
	res, err := Fig4Characterization(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5*4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	tbl := res.Fig4Table()
	if len(tbl.Rows) != 5 || !strings.Contains(tbl.String(), "Figure 4") {
		t.Fatal("Fig4 table malformed")
	}
	f5 := res.Fig5Table()
	if len(f5.Rows) != 5 {
		t.Fatal("Fig5 table malformed")
	}
	for net, m := range res.MACMissRate {
		if c := res.CounterMissRate[net]; m <= c {
			t.Fatalf("%s: MAC miss %.3f not above counter miss %.3f", net, m, c)
		}
	}
}

func TestExperimentFig7And8(t *testing.T) {
	res, err := Fig7Performance(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5*6 {
		t.Fatalf("points = %d", len(res.Points))
	}
	secMean := res.Mean(Seculator, false)
	tnpuMean := res.Mean(TNPU, false)
	gnnMean := res.Mean(GuardNN, false)
	if !(secMean > tnpuMean && tnpuMean > gnnMean) {
		t.Fatalf("ordering broken: sec=%.3f tnpu=%.3f gnn=%.3f", secMean, tnpuMean, gnnMean)
	}
	// The headline result: Seculator ~16-20% over TNPU.
	if up := secMean/tnpuMean - 1; up < 0.08 || up > 0.35 {
		t.Errorf("Seculator speedup over TNPU = %.1f%%", up*100)
	}
	if res.Mean(Seculator, true) != 1.0 {
		t.Error("Seculator must add zero traffic")
	}
	if res.Mean(GuardNN, true) < res.Mean(TNPU, true) {
		t.Error("GuardNN must move more traffic than TNPU")
	}
	if len(res.Fig7Table().Rows) != 5 || len(res.Fig8Table().Rows) != 5 {
		t.Fatal("tables malformed")
	}
}

func TestExperimentFig9(t *testing.T) {
	res, err := Fig9Widening(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 6*6 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Seculator must be the most scalable secure design: at the largest
	// widening its latency must stay below every prior secure design's.
	secG := res.Growth(Seculator)
	for _, d := range []Design{Secure, TNPU, GuardNN} {
		if g := res.Growth(d); g < secG {
			t.Errorf("%s growth %.2f below Seculator %.2f", d, g, secG)
		}
	}
	// And it must track the unprotected baseline closely even at 192x192.
	if baseG := res.Growth(Baseline); secG > baseG*1.10 {
		t.Errorf("Seculator at 192 (%.2f) strays >10%% from baseline (%.2f)", secG, baseG)
	}
	if len(res.Fig9Table().Rows) != 6 {
		t.Fatal("Fig9 table malformed")
	}
}

func TestTable5And6(t *testing.T) {
	t5 := Table5Matrix()
	if len(t5.Rows) != 6 {
		t.Fatalf("Table 5 rows = %d", len(t5.Rows))
	}
	t6 := Table6Hardware()
	if len(t6.Rows) != 4 { // 3 modules + total
		t.Fatalf("Table 6 rows = %d", len(t6.Rows))
	}
	if !strings.Contains(t6.String(), "AES-128") {
		t.Fatal("Table 6 missing AES row")
	}
	area, power := HardwareTotals()
	if area < 4000 || area > 4500 || power <= 0 {
		t.Fatalf("hardware totals: %.1f um^2 %.1f uW", area, power)
	}
}

func TestPatternTableRender(t *testing.T) {
	g := PatternGrid{AlphaHW: 2, AlphaC: 3, AlphaK: 4, OfmapTileBlocks: 1}
	tbl := PatternTable("table2-ir", g)
	if len(tbl.Rows) != 6 {
		t.Fatalf("table2-ir rows = %d", len(tbl.Rows))
	}
	all := PatternTable("all", g)
	if len(all.Rows) <= len(tbl.Rows) {
		t.Fatal("'all' must include every table")
	}
}

func TestAttackSurface(t *testing.T) {
	if err := RunAttack(DefaultAttackScenario(), nil, nil); err != nil {
		t.Fatalf("honest attack run: %v", err)
	}
	err := RunAttack(DefaultAttackScenario(), nil, func(d *DRAM, l AttackLayout) {
		d.Tamper(l.Addr(0, 0), 0, 1)
	})
	if !errors.Is(err, mac.ErrIntegrity) {
		t.Fatalf("tamper undetected: %v", err)
	}
	leaks, _, err := Eavesdrop(DefaultAttackScenario())
	if err != nil || leaks != 0 {
		t.Fatalf("eavesdrop: leaks=%d err=%v", leaks, err)
	}
}

func TestWideningSurface(t *testing.T) {
	net := MobileNet()
	w, err := WidenNetwork(net, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	rep := CompareWidening(net, w)
	if rep.Overhead() <= 1 {
		t.Fatal("widening must cost volume")
	}
	leakBase, err := NetworkLeakage(net, net, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	leakWide, err := NetworkLeakage(net, w, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if leakWide <= leakBase {
		t.Fatalf("widening did not reduce extraction accuracy: %.3f <= %.3f", leakWide, leakBase)
	}
	if _, err := WidenLayer(Layer{Type: Conv, C: 3, H: 8, W: 8, K: 4, R: 3, S: 3, Stride: 1}, 16, 16, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := DummyNetwork("d", 2, 8, 8, 4, 4); err != nil {
		t.Fatal(err)
	}
}

func TestTableString(t *testing.T) {
	tbl := Table{
		Title:  "test",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"xxx", "y"}},
		Notes:  []string{"n"},
	}
	s := tbl.String()
	for _, want := range []string{"== test ==", "xxx", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table render missing %q:\n%s", want, s)
		}
	}
}

func TestTableMarkdown(t *testing.T) {
	tbl := Table{
		Title:  "md",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"note"},
	}
	md := tbl.Markdown()
	for _, want := range []string{"### md", "| a | b |", "| --- | --- |", "| 1 | 2 |", "*note*"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}
