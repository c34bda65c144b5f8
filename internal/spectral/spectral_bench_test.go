package spectral

import (
	"testing"

	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
)

func BenchmarkSLEMFastMixer(b *testing.B) {
	g, err := gen.BarabasiAlbert(3000, 5, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchSLEM(b, g, Config{Tolerance: 1e-8, Seed: 1})
}

func BenchmarkSLEMSlowMixer(b *testing.B) {
	// Clustered spectra put λ₂ in a cluster near 1: this benchmark
	// tracks the cost of the hard case.
	g, _, err := gen.ClusteredPA(gen.ClusteredPAConfig{
		Communities: 8, CommunitySize: 100, Attach: 4, Bridges: 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchSLEM(b, g, Config{Tolerance: 1e-6, Seed: 1})
}

// benchSLEM times SLEM on g and reports the Lanczos step count, one
// mat-vec each, as matvecs/op.
func benchSLEM(b *testing.B, g *graph.Graph, cfg Config) {
	b.ReportAllocs()
	b.ResetTimer()
	matvecs := 0
	for i := 0; i < b.N; i++ {
		r, err := SLEM(g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		matvecs += r.Iterations
	}
	b.ReportMetric(float64(matvecs)/float64(b.N), "matvecs/op")
}
