package incremental

import (
	"context"
	"math"
	"testing"

	"github.com/trustnet/trustnet/internal/faults"
	"github.com/trustnet/trustnet/internal/graph"
)

func engineModel(t *testing.T, g *graph.Graph) *faults.Model {
	t.Helper()
	m, err := faults.New(g, faults.Config{Churn: 0.08, EdgeLoss: 0.04, Drift: 0.015, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// epochRecord is the comparable footprint of one epoch's measurement.
type epochRecord struct {
	cores      []int
	degeneracy int
	levels     [][]int64
	slem       float64
	slemSteps  int
	compSize   int
}

func recordEpoch(t *testing.T, en *Engine) epochRecord {
	t.Helper()
	meas, err := en.Measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ck := meas.Expansion.Checkpoint()
	levels := make([][]int64, len(ck.Levels))
	for i, ls := range ck.Levels {
		levels[i] = append([]int64(nil), ls...)
	}
	return epochRecord{
		cores:      append([]int(nil), en.Cores()...),
		degeneracy: meas.Degeneracy,
		levels:     levels,
		slem:       meas.SLEM.SLEM,
		slemSteps:  meas.SLEM.Iterations,
		compSize:   meas.ComponentSize,
	}
}

func compareEpochRecords(t *testing.T, epoch int, a, b epochRecord) {
	t.Helper()
	for v := range a.cores {
		if a.cores[v] != b.cores[v] {
			t.Fatalf("epoch %d: core(%d) diverged: %d vs %d", epoch, v, a.cores[v], b.cores[v])
		}
	}
	if a.degeneracy != b.degeneracy {
		t.Fatalf("epoch %d: degeneracy diverged: %d vs %d", epoch, a.degeneracy, b.degeneracy)
	}
	for i := range a.levels {
		if len(a.levels[i]) != len(b.levels[i]) {
			t.Fatalf("epoch %d source %d: level counts diverged: %v vs %v", epoch, i, a.levels[i], b.levels[i])
		}
		for d := range a.levels[i] {
			if a.levels[i][d] != b.levels[i][d] {
				t.Fatalf("epoch %d source %d level %d: %d vs %d", epoch, i, d, a.levels[i][d], b.levels[i][d])
			}
		}
	}
	if math.Float64bits(a.slem) != math.Float64bits(b.slem) || a.slemSteps != b.slemSteps {
		t.Fatalf("epoch %d: SLEM diverged: %.17g after %d steps vs %.17g after %d",
			epoch, a.slem, a.slemSteps, b.slem, b.slemSteps)
	}
	if a.compSize != b.compSize {
		t.Fatalf("epoch %d: component size diverged: %d vs %d", epoch, a.compSize, b.compSize)
	}
}

// TestKillAndResumeEngineEquivalence kills a sweep mid-flight and
// resumes it cold: the fault schedule replays to the kill epoch with
// SetEpoch, a fresh Engine rebuilds there, and the resumed epochs must
// match the uninterrupted run bit for bit: cores, expansion and SLEM.
func TestKillAndResumeEngineEquivalence(t *testing.T) {
	g := sweepGraph(t)
	cfg := EngineConfig{Sources: expansionSources(t, g, 8), Workers: 1}

	// Uninterrupted run: epochs 0..8.
	m1 := engineModel(t, g)
	en1, err := NewEngine(m1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	records := make([]epochRecord, 0, 9)
	records = append(records, recordEpoch(t, en1))
	for e := 1; e <= 8; e++ {
		en1.Advance()
		records = append(records, recordEpoch(t, en1))
	}

	// "Killed" at epoch 4: replay the schedule, rebuild, continue.
	const killAt = 4
	m2 := engineModel(t, g)
	if err := m2.SetEpoch(killAt); err != nil {
		t.Fatal(err)
	}
	en2, err := NewEngine(m2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareEpochRecords(t, killAt, records[killAt], recordEpoch(t, en2))
	for e := killAt + 1; e <= 8; e++ {
		en2.Advance()
		if en2.Epoch() != e {
			t.Fatalf("resumed engine at epoch %d, want %d", en2.Epoch(), e)
		}
		compareEpochRecords(t, e, records[e], recordEpoch(t, en2))
	}
}

// TestEquivalenceEngineVsFullSweep validates every engine epoch
// against the from-scratch MeasureFull baseline on the same view.
func TestEquivalenceEngineVsFullSweep(t *testing.T) {
	g := sweepGraph(t)
	cfg := EngineConfig{Sources: expansionSources(t, g, 8), Workers: 1}
	m := engineModel(t, g)
	en, err := NewEngine(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e <= 6; e++ {
		if e > 0 {
			en.Advance()
		}
		got, err := en.Measure(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want, err := MeasureFull(context.Background(), m.View(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Degeneracy != want.Degeneracy {
			t.Fatalf("epoch %d: degeneracy %d, full says %d", e, got.Degeneracy, want.Degeneracy)
		}
		gl, wl := got.Expansion.Checkpoint().Levels, want.Expansion.Checkpoint().Levels
		for i := range wl {
			if len(gl[i]) != len(wl[i]) {
				t.Fatalf("epoch %d source %d: levels %v, full says %v", e, i, gl[i], wl[i])
			}
			for d := range wl[i] {
				if gl[i][d] != wl[i][d] {
					t.Fatalf("epoch %d source %d level %d: %d, full says %d", e, i, d, gl[i][d], wl[i][d])
				}
			}
		}
		if math.Float64bits(got.SLEM.SLEM) != math.Float64bits(want.SLEM.SLEM) || got.SLEM.Iterations != want.SLEM.Iterations {
			t.Fatalf("epoch %d: SLEM %.17g after %d steps, full says %.17g after %d",
				e, got.SLEM.SLEM, got.SLEM.Iterations, want.SLEM.SLEM, want.SLEM.Iterations)
		}
		if got.ComponentSize != want.ComponentSize {
			t.Fatalf("epoch %d: component %d, full says %d", e, got.ComponentSize, want.ComponentSize)
		}
	}
}
