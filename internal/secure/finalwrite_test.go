package secure_test

import (
	"fmt"
	"testing"

	"seculator/internal/conformance"
	"seculator/internal/secure"
	"seculator/internal/workload"
)

// TestFinalVersionWrittenOncePerLine: a final write records its MAC in its
// line's memo entry, and the next layer's first reads take it from there, so
// the record must be the line's last write of the layer attempt. The final
// version is a line's last write, so the one other write that could follow
// it is a second final one. Every activation line of every layer gets
// exactly one, across the networks of
// the conformance generator's seeded trials (those seculator-sim
// -conformance 200 -seed 1 runs) and the shipped shapes, at the default
// global buffer and at 2 KiB, 1 KiB and 512 B — where mappings that cannot
// hold an output tile write partial sums, so lines get several writes.
func TestFinalVersionWrittenOncePerLine(t *testing.T) {
	type netCase struct {
		name string
		net  workload.Network
	}
	var nets []netCase
	for seed := int64(1); seed <= 200; seed++ {
		nets = append(nets, netCase{fmt.Sprintf("conformance seed %d", seed), conformance.Generate(seed).Net.Network()})
	}
	for _, shape := range []string{"Mini", "MobileNet/8"} {
		net, err := workload.ResolveShape(shape)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, netCase{shape, net})
	}
	mapped, lines, rewritten := 0, 0, 0
	for _, buffer := range []int{0, 2048, 1024, 512} {
		x := secure.NewExecutor()
		if buffer != 0 {
			x.NPU.GlobalBufferBytes = buffer
		}
		for _, nc := range nets {
			if nc.net.Validate() != nil {
				continue
			}
			final, all, err := secure.FinalWrites(x, nc.net)
			if err != nil {
				continue // unmappable at this buffer: the executor refuses it too
			}
			mapped++
			for i := range final {
				for line, n := range final[i] {
					if n != 1 {
						t.Fatalf("%s, buffer %d, layer %d: activation line %d gets %d final-version writes of %d",
							nc.name, buffer, i, line, n, all[i][line])
					}
					if all[i][line] > 1 {
						rewritten++
					}
				}
				lines += len(final[i])
			}
		}
	}
	if rewritten == 0 {
		t.Fatal("no line was written more than once: the test never told a final write from another")
	}
	t.Logf("%d mapped networks, %d activation lines (%d written more than once), each written once at its final version",
		mapped, lines, rewritten)
}
