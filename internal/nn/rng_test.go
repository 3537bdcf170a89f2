package nn

import (
	"math/rand"
	"testing"

	"seculator/internal/workload"
)

// FuzzDrawMatchesMathRand: for any seed, source's first n outputs are
// rand.NewSource(seed)'s, and Tensor.Randomize into a tensor of n elements
// draws what rand.New(rand.NewSource(seed)).Intn(16) − 8 gives. Lengths past
// 607 take the register through its wrap points, once per pass. The
// committed corpus holds the seeds seeding reduces to an edge: 0 and its
// substitute 89482311, −1, multiples of 2³¹−1 and their negatives, and the
// int64 extremes.
func FuzzDrawMatchesMathRand(f *testing.F) {
	f.Add(int64(1), uint16(1300))
	f.Fuzz(func(t *testing.T, seed int64, length uint16) {
		n := int(length)%5000 + 1
		ref := rand.NewSource(seed).(rand.Source64)
		var s source
		s.seed(seed)
		for i := 0; i < n; i++ {
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: output %d = %#x, math/rand gives %#x", seed, i, got, want)
			}
		}
		if got, want := int64(s.Uint64()&^(1<<63)), ref.Int63(); got != want {
			t.Fatalf("seed %d: Int63 after %d outputs = %d, math/rand gives %d", seed, n, got, want)
		}

		in := NewTensor(1, 1, n)
		in.Randomize(seed)
		rng := rand.New(rand.NewSource(seed))
		for i, v := range in.Data {
			if want := int32(rng.Intn(16) - 8); v != want {
				t.Fatalf("seed %d: element %d of %d = %d, math/rand gives %d", seed, i, n, v, want)
			}
		}
	})
}

// mathRandModel is RandomModel drawn straight from math/rand, as draw did
// before source: the reference arm of BenchmarkRandomModel.
func mathRandModel(net workload.Network, seed int64) (*Tensor, []*Weights) {
	fill := func(data []int32, seed int64, n int32) {
		src := rand.NewSource(seed)
		for i := range data {
			data[i] = int32(src.Int63()>>32)&(n-1) - n/2
		}
	}
	first := net.Layers[0]
	in := NewTensor(first.C, first.H, first.W)
	fill(in.Data, seed, 16)
	ws := make([]*Weights, len(net.Layers))
	for i, l := range net.Layers {
		if w := WeightsFor(l); w != nil {
			fill(w.Data, seed+int64(i)+1, 8)
			ws[i] = w
		}
	}
	return in, ws
}

// BenchmarkRandomModel prices model synthesis, each arm beside a mathrand
// arm that does the same work through rand.NewSource:
//   - seed: one seeding, reported as ns/seeding;
//   - draw: 6,608 values (a Mini model's worth) from a seeded source,
//     reported as ns/value;
//   - Mini and MobileNet8: RandomModel, reported as seedings/op, values/op
//     and ns/value (seedings included).
func BenchmarkRandomModel(b *testing.B) {
	b.Run("seed", func(b *testing.B) {
		b.Run("port", func(b *testing.B) {
			var s source
			for i := 0; i < b.N; i++ {
				s.seed(int64(i))
			}
			benchSink = int32(s.w[0])
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/seeding")
		})
		b.Run("mathrand", func(b *testing.B) {
			src := rand.NewSource(0)
			for i := 0; i < b.N; i++ {
				src.Seed(int64(i))
			}
			benchSink = int32(src.Int63())
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/seeding")
		})
	})
	data := make([]int32, 6608)
	perValue := func(b *testing.B, values int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(values), "ns/value")
	}
	b.Run("draw", func(b *testing.B) {
		b.Run("port", func(b *testing.B) {
			var s source
			s.seed(1)
			for i := 0; i < b.N; i++ {
				s.fill(data, 16)
			}
			perValue(b, len(data))
		})
		b.Run("mathrand", func(b *testing.B) {
			src := rand.NewSource(1)
			for i := 0; i < b.N; i++ {
				for j := range data {
					data[j] = int32(src.Int63()>>32)&15 - 8
				}
			}
			perValue(b, len(data))
		})
	})
	for _, arm := range []struct{ name, net string }{{"Mini", "Mini"}, {"MobileNet8", "MobileNet/8"}} {
		net, err := workload.ResolveShape(arm.net)
		if err != nil {
			b.Fatal(err)
		}
		in, ws := RandomModel(net, 1)
		seedings, values := 1, len(in.Data)
		for _, w := range ws {
			if w != nil {
				seedings++
				values += len(w.Data)
			}
		}
		for _, model := range []struct {
			name  string
			build func(workload.Network, int64) (*Tensor, []*Weights)
		}{{"port", RandomModel}, {"mathrand", mathRandModel}} {
			b.Run(arm.name+"/"+model.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					in, _ := model.build(net, int64(i))
					benchSink = in.Data[0]
				}
				b.ReportMetric(float64(seedings), "seedings/op")
				b.ReportMetric(float64(values), "values/op")
				perValue(b, values)
			})
		}
	}
}
