package spectral

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/trustnet/trustnet/internal/gen"
)

// countCtx is a context whose Err() flips to DeadlineExceeded after a
// fixed number of calls. SLEMContext consults Err() exactly once per
// Lanczos step, so the interruption lands at the same iteration on
// every run — unlike a wall-clock deadline.
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

func TestSLEMContextBestEffortPartial(t *testing.T) {
	g, err := gen.BarabasiAlbert(200, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 5, Workers: 1, MaxIterations: 500, Tolerance: 1e-300}
	cfg.BestEffort = true
	r, err := SLEMContext(newCountCtx(40), g, cfg)
	if err != nil {
		t.Fatalf("best-effort run returned error: %v", err)
	}
	if !r.Partial || r.Converged {
		t.Fatalf("interrupted run: Partial=%v Converged=%v", r.Partial, r.Converged)
	}
	if r.Iterations != 40 {
		t.Fatalf("Iterations = %d, want exactly 40 (one Err() check per iteration)", r.Iterations)
	}
	if cov := r.Coverage; cov <= 0 || cov >= 1 {
		t.Fatalf("Coverage = %v, want in (0, 1)", cov)
	}
	if math.IsInf(r.SLEM, 0) || math.IsNaN(r.SLEM) {
		t.Fatalf("salvaged SLEM estimate = %v", r.SLEM)
	}
	if ckpt := r.Checkpoint(); ckpt == nil || ckpt.Iterations != 40 || len(ckpt.Q) != 200 ||
		len(ckpt.QPrev) != 200 || len(ckpt.Alpha) != 40 || len(ckpt.Beta) != 40 {
		t.Fatalf("Checkpoint() = %+v", ckpt)
	}

	// Without BestEffort the same interruption is an error.
	cfg.BestEffort = false
	if _, err := SLEMContext(newCountCtx(40), g, cfg); err == nil {
		t.Fatal("without BestEffort, interrupted run returned no error")
	}

	// Zero completed iterations has nothing to salvage.
	cfg.BestEffort = true
	if _, err := SLEMContext(newCountCtx(0), g, cfg); err == nil {
		t.Fatal("zero-iteration best-effort run returned no error")
	}
}

// The resilience contract: interrupt the Lanczos run, checkpoint the
// recurrence state through a JSON round-trip (as internal/resilience
// would), resume, and the final eigenvalue is bit-identical to the
// never-interrupted computation.
func TestSLEMContextResumeBitIdentical(t *testing.T) {
	g, err := gen.BarabasiAlbert(200, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 5, Workers: 1, MaxIterations: 2000}
	ref, err := SLEM(g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cut := cfg
	cut.BestEffort = true
	partial, err := SLEMContext(newCountCtx(25), g, cut)
	if err != nil {
		t.Fatal(err)
	}
	if !partial.Partial {
		t.Fatal("setup: expected a partial result")
	}

	data, err := json.Marshal(partial.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	var ckpt Checkpoint
	if err := json.Unmarshal(data, &ckpt); err != nil {
		t.Fatal(err)
	}

	resumed := cfg
	resumed.Resume = &ckpt
	got, err := SLEMContext(context.Background(), g, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Partial || !got.Converged || got.Coverage != 1 {
		t.Fatalf("resumed run: %+v", got)
	}
	if math.Float64bits(got.SLEM) != math.Float64bits(ref.SLEM) {
		t.Fatalf("resumed SLEM %x differs from uninterrupted %x",
			math.Float64bits(got.SLEM), math.Float64bits(ref.SLEM))
	}
	if got.Iterations != ref.Iterations {
		t.Fatalf("resumed total iterations %d, uninterrupted %d", got.Iterations, ref.Iterations)
	}
	if got.Checkpoint() != nil {
		t.Fatal("complete result produced a checkpoint")
	}
}

// A partial result can itself be resumed and cut again; chaining partial
// runs still lands on the exact uninterrupted trajectory.
func TestSLEMContextResumeChained(t *testing.T) {
	g, err := gen.BarabasiAlbert(150, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 2, Workers: 1, MaxIterations: 2000}
	ref, err := SLEM(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cut := cfg
	cut.BestEffort = true
	r, err := SLEMContext(newCountCtx(10), g, cut)
	if err != nil {
		t.Fatal(err)
	}
	hops := 0
	for ; r.Partial; hops++ {
		if hops > 50 {
			t.Fatal("resume chain did not terminate")
		}
		next := cut
		next.Resume = r.Checkpoint()
		// Each hop advances at most 7 steps (one Err() call each).
		if r, err = SLEMContext(newCountCtx(7), g, next); err != nil {
			t.Fatal(err)
		}
	}
	if hops < 3 {
		t.Fatalf("setup: the run finished after %d resumes; the chain should be longer", hops)
	}
	if math.Float64bits(r.SLEM) != math.Float64bits(ref.SLEM) || r.Iterations != ref.Iterations {
		t.Fatalf("chained resume: SLEM %v after %d iterations, want %v after %d",
			r.SLEM, r.Iterations, ref.SLEM, ref.Iterations)
	}
}

func TestSLEMContextResumeMalformedRejected(t *testing.T) {
	g, err := gen.BarabasiAlbert(100, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cut := Config{Workers: 1, BestEffort: true}
	partial, err := SLEMContext(newCountCtx(3), g, cut)
	if err != nil || !partial.Partial {
		t.Fatalf("setup: partial run = %+v, %v", partial, err)
	}
	good := *partial.Checkpoint()
	for name, mutate := range map[string]func(c *Checkpoint){
		"short Q":          func(c *Checkpoint) { c.Q = c.Q[:7] },
		"short QPrev":      func(c *Checkpoint) { c.QPrev = nil },
		"zero iterations":  func(c *Checkpoint) { c.Iterations, c.Alpha, c.Beta = 0, nil, nil },
		"alpha/iterations": func(c *Checkpoint) { c.Alpha = c.Alpha[:2] },
		"beta/iterations":  func(c *Checkpoint) { c.Beta = append(c.Beta, 0.5) },
		"non-finite alpha": func(c *Checkpoint) { c.Alpha = []float64{c.Alpha[0], math.NaN(), c.Alpha[2]} },
		"vanishing beta":   func(c *Checkpoint) { c.Beta = []float64{c.Beta[0], 0, c.Beta[2]} },
		"infinite beta":    func(c *Checkpoint) { c.Beta = []float64{c.Beta[0], c.Beta[1], math.Inf(1)} },
		"negative beta":    func(c *Checkpoint) { c.Beta = []float64{-c.Beta[0], c.Beta[1], c.Beta[2]} },
	} {
		c := good
		mutate(&c)
		cfg := Config{Workers: 1, Resume: &c}
		if _, err := SLEMContext(context.Background(), g, cfg); err == nil {
			t.Errorf("%s: malformed checkpoint accepted", name)
		}
	}

	// A power-iteration checkpoint left on disk by an older version
	// decodes without Q, Alpha or Beta and must be rejected, not resumed.
	old := []byte(`{"vector":[` + strings.Repeat("0.1,", 99) + `0.1],"prev":0.5,"iterations":3}`)
	var ckpt Checkpoint
	if err := json.Unmarshal(old, &ckpt); err != nil {
		t.Fatal(err)
	}
	if _, err := SLEMContext(context.Background(), g, Config{Workers: 1, Resume: &ckpt}); err == nil {
		t.Fatal("power-iteration checkpoint accepted as a Lanczos resume state")
	}

	// The unmodified checkpoint still resumes.
	if _, err := SLEMContext(context.Background(), g, Config{Workers: 1, Resume: &good}); err != nil {
		t.Fatalf("well-formed checkpoint rejected: %v", err)
	}
}
