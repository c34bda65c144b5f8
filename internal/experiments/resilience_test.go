package experiments

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"github.com/trustnet/trustnet/internal/resilience"
)

// countCtx is a context whose Err() flips to DeadlineExceeded after a
// fixed number of calls. The runners and measurements consult Err() at
// deterministic points (per dataset, per Lanczos step, per walk
// step), so with Workers=1 the "kill" lands at exactly the same place on
// every run — a reproducible stand-in for a wall-clock deadline or a
// killed process.
type countCtx struct {
	context.Context
	calls   atomic.Int64
	budget  int64
	expired atomic.Bool
}

func newCountCtx(budget int64) *countCtx {
	return &countCtx{Context: context.Background(), budget: budget}
}

func (c *countCtx) Err() error {
	if c.calls.Add(1) > c.budget || c.expired.Load() {
		c.expired.Store(true)
		return context.DeadlineExceeded
	}
	return nil
}

func (c *countCtx) Deadline() (time.Time, bool) { return time.Time{}, false }

// Kill-and-resume determinism for Table I: interrupt the run mid power
// iteration, then resume from the on-disk checkpoints; the resumed table
// must be bit-identical to a never-interrupted run.
func TestTableIKillAndResumeDeterministic(t *testing.T) {
	base := Options{Quick: true, Seed: 1, Workers: 1}
	ref, err := TableI(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Rows) == 0 {
		t.Fatal("reference run produced no rows")
	}

	store := resilience.NewStore(t.TempDir())
	cut := base
	cut.BestEffort = true
	cut.Ckpt = store
	partial, err := TableI(newCountCtx(60), cut)
	if err != nil {
		t.Fatalf("interrupted best-effort run: %v", err)
	}
	if !partial.Partial {
		t.Fatalf("interrupted run not partial (%d rows) — countCtx budget too large", len(partial.Rows))
	}
	last := partial.Rows[len(partial.Rows)-1]
	if !last.Partial || last.Coverage <= 0 || last.Coverage >= 1 {
		t.Fatalf("last row = %+v, want partial with coverage in (0,1)", last)
	}

	resumed := base
	resumed.Ckpt = store
	resumed.Resume = true
	got, err := TableI(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Partial {
		t.Fatal("resumed run still partial")
	}
	if len(got.Rows) != len(ref.Rows) {
		t.Fatalf("resumed run has %d rows, want %d", len(got.Rows), len(ref.Rows))
	}
	for i, want := range ref.Rows {
		have := got.Rows[i]
		if have.Name != want.Name || have.Nodes != want.Nodes || have.Edges != want.Edges {
			t.Fatalf("row %d = %+v, want %+v", i, have, want)
		}
		if math.Float64bits(have.SLEM) != math.Float64bits(want.SLEM) {
			t.Fatalf("row %d (%s): resumed SLEM %x differs from uninterrupted %x",
				i, want.Name, math.Float64bits(have.SLEM), math.Float64bits(want.SLEM))
		}
		if have.Converged != want.Converged || have.Partial {
			t.Fatalf("row %d (%s): Converged=%v Partial=%v, want %v and false",
				i, want.Name, have.Converged, have.Partial, want.Converged)
		}
	}

	// A third run resumes everything from done checkpoints — no
	// measurement at all — and still reproduces the table.
	again, err := TableI(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Rows {
		if math.Float64bits(again.Rows[i].SLEM) != math.Float64bits(ref.Rows[i].SLEM) {
			t.Fatalf("checkpoint-only rerun diverged on row %d", i)
		}
	}
}

// Kill-and-resume determinism for Figure 1's mixing curves.
func TestFigure1KillAndResumeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-dataset experiment is slow")
	}
	base := Options{Quick: true, Seed: 1, Workers: 1}
	ref, err := Figure1(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}

	store := resilience.NewStore(t.TempDir())
	cut := base
	cut.BestEffort = true
	cut.Ckpt = store
	// Enough Err() budget to finish some sources of the first dataset
	// (one call per fan-out item, one per walk step).
	partial, err := Figure1(newCountCtx(200), cut)
	if err != nil {
		t.Fatalf("interrupted best-effort run: %v", err)
	}
	if !partial.Partial {
		t.Fatal("interrupted run not partial — countCtx budget too large")
	}

	resumed := base
	resumed.Ckpt = store
	resumed.Resume = true
	got, err := Figure1(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Partial {
		t.Fatal("resumed run still partial")
	}
	if len(got.PanelA) != len(ref.PanelA) || len(got.PanelB) != len(ref.PanelB) {
		t.Fatalf("panels = %d/%d, want %d/%d", len(got.PanelA), len(got.PanelB), len(ref.PanelA), len(ref.PanelB))
	}
	for i, want := range ref.PanelA {
		have := got.PanelA[i]
		for k := range want.Y {
			if math.Float64bits(have.Y[k]) != math.Float64bits(want.Y[k]) {
				t.Fatalf("PanelA %s point %d differs after resume", want.Name, k)
			}
		}
	}
	for i, want := range ref.PanelB {
		have := got.PanelB[i]
		for k := range want.Y {
			if math.Float64bits(have.Y[k]) != math.Float64bits(want.Y[k]) {
				t.Fatalf("PanelB %s point %d differs after resume", want.Name, k)
			}
		}
	}
	for name, want := range ref.MixingTimes {
		if got.MixingTimes[name] != want {
			t.Fatalf("MixingTimes[%s] = %d, want %d", name, got.MixingTimes[name], want)
		}
	}
}
