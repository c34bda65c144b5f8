package incremental

import (
	"context"
	"math"
	"testing"

	"github.com/trustnet/trustnet/internal/faults"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/spectral"
)

// TestEquivalenceSLEMMaintainerDriftSweep checks that every epoch's
// measurement on a drifting fault schedule is bit-identical — μ and
// step count — to a cold SLEM on the same largest component.
func TestEquivalenceSLEMMaintainerDriftSweep(t *testing.T) {
	g := sweepGraph(t)
	m, err := faults.New(g, faults.Config{Churn: 0.05, EdgeLoss: 0.03, Drift: 0.01, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	cfg := spectral.Config{Seed: 7, Workers: 1}
	sm := NewSLEMMaintainer(m.View(), cfg)
	ctx := context.Background()

	var d *faults.EpochDelta
	for e := 0; e <= 6; e++ {
		if e > 0 {
			d = m.AdvanceEpochDelta(d)
		}
		res, size, err := sm.Measure(ctx)
		if err != nil {
			t.Fatalf("epoch %d: maintained measure: %v", e, err)
		}
		comp, nodes := graph.LargestComponentView(m.View())
		if size != len(nodes) {
			t.Fatalf("epoch %d: component size %d, want %d", e, size, len(nodes))
		}
		cold, err := spectral.SLEMContext(ctx, comp, cfg)
		if err != nil {
			t.Fatalf("epoch %d: cold measure: %v", e, err)
		}
		if !res.Converged {
			t.Fatalf("epoch %d: not converged after %d steps", e, res.Iterations)
		}
		if math.Float64bits(res.SLEM) != math.Float64bits(cold.SLEM) || res.Iterations != cold.Iterations {
			t.Fatalf("epoch %d: maintained SLEM %.17g after %d steps, cold %.17g after %d",
				e, res.SLEM, res.Iterations, cold.SLEM, cold.Iterations)
		}
	}
}

// TestEquivalenceSLEMMaintainerFirstMeasureIsCold checks the first
// measurement (no carried vector) is bit-identical to a plain cold
// start with the same configuration.
func TestEquivalenceSLEMMaintainerFirstMeasureIsCold(t *testing.T) {
	g := sweepGraph(t)
	mv := graph.NewMaskedView(g)
	cfg := spectral.Config{Seed: 3, Workers: 1}
	sm := NewSLEMMaintainer(mv, cfg)
	res, _, err := sm.Measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	comp, _ := graph.LargestComponentView(mv)
	cold, err := spectral.SLEMContext(context.Background(), comp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SLEM != cold.SLEM || res.Iterations != cold.Iterations {
		t.Fatalf("first measure diverged from cold start: %.15f/%d vs %.15f/%d",
			res.SLEM, res.Iterations, cold.SLEM, cold.Iterations)
	}
}
