package secure_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"seculator/internal/conformance"
	"seculator/internal/crypto"
	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/nn"
	"seculator/internal/resilience"
	"seculator/internal/secure"
	"seculator/internal/tensor"
	"seculator/internal/workload"
)

// The weight check keeps only the difference between the host's MACs and
// the reads': a line whose first read fetched the host's bytes under the
// host's counter folds nothing, any other folds both MACs. The check it
// replaced compared the host's golden XOR-MAC G with the fold of the first
// reads R and of the unread blocks' stand-ins U. These tests hold the
// executor's fold, bit for bit, to a reference that computes G ⊕ R ⊕ U the
// old way — mac.BlockMAC over the host plaintext, over the fetched lines
// decrypted by an engine of its own, and over the stand-ins — on clean runs
// and under tampering.

// fetchTap records the first fetch of every line, changing nothing.
type fetchTap struct {
	seen   map[uint64]bool
	firsts []secure.Fetch
}

func (p *fetchTap) OnRead(addr uint64, data []byte) {
	if !p.seen[addr] {
		p.seen[addr] = true
		p.firsts = append(p.firsts, secure.Fetch{Addr: addr, Bytes: [tensor.BlockBytes]byte(data)})
	}
}

func (p *fetchTap) OnWrite(uint64, []byte) {}

// weightFoldCase is a network with its model, as one executor config runs it.
type weightFoldCase struct {
	name   string
	net    workload.Network
	buffer int // GlobalBufferBytes; 0 keeps the default
	seed   int64
}

func (c weightFoldCase) executor() *secure.Executor {
	x := secure.NewExecutor()
	if c.buffer != 0 {
		x.NPU.GlobalBufferBytes = c.buffer
	}
	// One attempt per layer: each line's first fetch is its layer's first read.
	x.Retry = resilience.Policy{}
	return x
}

// referenceFold is G ⊕ R ⊕ U for one layer's weight lines, given the first
// fetches of its lines in read order: G over the host plaintext, R over each
// fetched line decrypted under its own counter, U over the stand-in of each
// line no read fetched. It also returns how many lines U covers.
func referenceFold(eng *crypto.CTREngine, lines []secure.WeightLine, firsts []secure.Fetch,
	standIns func([]secure.Fetch) map[uint64][tensor.BlockBytes]byte) (mac.Digest, int) {

	var fold mac.Digest
	byAddr := map[uint64]secure.WeightLine{}
	for _, ln := range lines {
		byAddr[ln.Addr] = ln
		fold = fold.Xor(mac.BlockMAC(ln.Ref, ln.Plain[:]))
	}
	decrypted := make([]secure.Fetch, len(firsts))
	for i, f := range firsts {
		ln := byAddr[f.Addr]
		decrypted[i].Addr = f.Addr
		eng.DecryptBlock(decrypted[i].Bytes[:], f.Bytes[:], ln.Ctr)
		fold = fold.Xor(mac.BlockMAC(ln.Ref, decrypted[i].Bytes[:]))
		delete(byAddr, f.Addr)
	}
	stand := standIns(decrypted)
	for addr, ln := range byAddr {
		s := stand[addr]
		fold = fold.Xor(mac.BlockMAC(ln.Ref, s[:]))
	}
	return fold, len(byAddr)
}

// checkWeightFolds runs c once clean on the loader path (every fold must be
// zero), once clean with the tap, and then, per weighted layer, with one
// bit flipped in its weight region, two of its lines swapped, and one of
// its lines restored from another weighted layer's region, each mounted
// just before the layer runs. Every fold a tapped run takes must equal the
// reference's. It returns how many attacked layers folded non-zero and how
// many unread lines the references folded.
func checkWeightFolds(t *testing.T, c weightFoldCase) (detected, unread int) {
	t.Helper()
	in, ws := nn.RandomModel(c.net, c.seed)
	x := c.executor()
	lines, standIns, err := secure.WeightLines(x, c.net, ws)
	if err != nil {
		return 0, 0 // unmappable here: the executor refuses it too
	}
	var weighted []int
	for i := range lines {
		if len(lines[i]) > 0 {
			weighted = append(weighted, i)
		}
	}
	eng := crypto.NewCTR(x.Secret, x.Random)

	// The loader arm: no tap, so pads ahead and the loader's stores engage.
	folds := map[int]mac.Digest{}
	secure.SetWeightFoldTap(x, func(layer int, fold mac.Digest) { folds[layer] = fold })
	if _, err := x.Run(context.Background(), c.net, in, ws); err != nil {
		t.Fatalf("%s: clean run: %v", c.name, err)
	}
	if len(folds) != len(weighted) {
		t.Fatalf("%s: clean run folded %d weighted layers of %d", c.name, len(folds), len(weighted))
	}
	for layer, fold := range folds {
		if fold != (mac.Digest{}) {
			t.Fatalf("%s: clean run: layer %d folds %v", c.name, layer, fold)
		}
	}

	run := func(what string, attacked int, atk secure.Hook) {
		x := c.executor()
		tap := &fetchTap{seen: map[uint64]bool{}}
		x.Injector, x.AfterPhase = tap, atk
		folds := map[int]mac.Digest{}
		secure.SetWeightFoldTap(x, func(layer int, fold mac.Digest) { folds[layer] = fold })
		_, err := x.Run(context.Background(), c.net, in, ws)
		for layer, fold := range folds {
			region := secure.Region{Base: lines[layer][0].Addr, Blocks: len(lines[layer])}
			var firsts []secure.Fetch
			for _, f := range tap.firsts {
				if region.Contains(f.Addr) {
					firsts = append(firsts, f)
				}
			}
			want, n := referenceFold(eng, lines[layer], firsts,
				func(p []secure.Fetch) map[uint64][tensor.BlockBytes]byte { return standIns(layer, p) })
			unread += n
			if fold != want {
				t.Fatalf("%s, %s: layer %d folds %v, the reference's golden ⊕ reads ⊕ unread is %v", c.name, what, layer, fold, want)
			}
			if layer != attacked && fold != (mac.Digest{}) {
				t.Fatalf("%s, %s: layer %d, not attacked, folds %v", c.name, what, layer, fold)
			}
		}
		if attacked < 0 {
			if err != nil {
				t.Fatalf("%s, %s: %v", c.name, what, err)
			}
			return
		}
		fold, ok := folds[attacked]
		if !ok {
			t.Fatalf("%s, %s: layer %d took no weight check (err %v)", c.name, what, attacked, err)
		}
		if fold != (mac.Digest{}) {
			detected++
			if !errors.Is(err, mac.ErrIntegrity) {
				t.Fatalf("%s, %s: layer %d folds %v but the run says %v", c.name, what, attacked, fold, err)
			}
		}
	}
	run("clean, tapped", -1, nil)

	for wi, i := range weighted {
		region, n := lines[i], len(lines[i])
		other := lines[weighted[(wi+1)%len(weighted)]]
		before := i - 1 // the phase right before layer i: -1 is after the model load
		var stolen []byte
		run(fmt.Sprintf("bit flip before layer %d", i), i, func(phase int, d *mem.DRAM) {
			if phase == before {
				d.Tamper(region[(7*i+3)%n].Addr, (5*i)%tensor.BlockBytes, 1<<(i%8))
			}
		})
		if n > 1 {
			a := (3 * i) % n
			run(fmt.Sprintf("swap before layer %d", i), i, func(phase int, d *mem.DRAM) {
				if phase == before {
					d.Swap(region[a].Addr, region[(a+n/2)%n].Addr)
				}
			})
		}
		if len(weighted) > 1 {
			run(fmt.Sprintf("restore from another layer before layer %d", i), i, func(phase int, d *mem.DRAM) {
				if phase == -1 {
					stolen, _ = d.Snapshot(other[(11*i)%len(other)].Addr)
				}
				if phase == before {
					d.Restore(region[(13*i)%n].Addr, stolen)
				}
			})
		}
	}
	return detected, unread
}

// TestWeightFoldMatchesGoldenArithmetic is the oracle over Mini, Mini at a
// 2 KiB buffer (184 repeat weight reads), MobileNet/8 and the networks of the
// first 50 conformance-generator trials.
func TestWeightFoldMatchesGoldenArithmetic(t *testing.T) {
	cases := []weightFoldCase{
		{name: "Mini", net: mustShape(t, "Mini"), seed: 1},
		{name: "Mini @ 2 KiB", net: mustShape(t, "Mini"), buffer: 2048, seed: 1},
		{name: "MobileNet/8", net: mustShape(t, "MobileNet/8"), seed: 1},
	}
	for seed := int64(1); seed <= 50; seed++ {
		if net := conformance.Generate(seed).Net.Network(); net.Validate() == nil {
			cases = append(cases, weightFoldCase{name: fmt.Sprintf("conformance seed %d", seed), net: net, seed: seed})
		}
	}
	detected, unread := 0, 0
	for _, c := range cases {
		d, u := checkWeightFolds(t, c)
		detected, unread = detected+d, unread+u
	}
	if detected == 0 {
		t.Fatal("no attack moved a weight fold: the oracle compared nothing but zeros")
	}
	t.Logf("%d networks, %d attacked layers detected, %d unread lines folded by the references", len(cases), detected, unread)
}

func mustShape(t *testing.T, name string) workload.Network {
	t.Helper()
	net, err := workload.ResolveShape(name)
	if err != nil {
		t.Fatal(err)
	}
	return net
}
