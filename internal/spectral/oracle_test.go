package spectral

import (
	"math"
	"sort"
	"testing"

	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
)

// denseSpectrum returns the eigenvalues of N = D^(-1/2) A D^(-1/2) in
// ascending order, computed by cyclic Jacobi rotations on the dense
// matrix: an independent oracle for the Lanczos measurement, with no
// deflation, recurrence or stopping rule of its own.
func denseSpectrum(t *testing.T, g *graph.Graph) []float64 {
	t.Helper()
	n := g.NumNodes()
	a := make([][]float64, n)
	for v := range a {
		a[v] = make([]float64, n)
	}
	for v := 0; v < n; v++ {
		dv := float64(g.Degree(graph.NodeID(v)))
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			a[v][u] += 1 / math.Sqrt(dv*float64(g.Degree(u)))
		}
	}
	for sweep := 0; ; sweep++ {
		off := 0.0
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				off += a[p][q] * a[p][q]
			}
		}
		if off < 1e-30 {
			break
		}
		if sweep == 100 {
			t.Fatalf("jacobi: off-diagonal mass %v after %d sweeps", off, sweep)
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				if a[p][q] == 0 {
					continue
				}
				// Zero a[p][q] with the rotation angle from the smaller
				// root of t² + 2τt − 1 = 0 (Numerical Recipes' form).
				tau := (a[q][q] - a[p][p]) / (2 * a[p][q])
				tt := 1 / (math.Abs(tau) + math.Sqrt(1+tau*tau))
				if tau < 0 {
					tt = -tt
				}
				c := 1 / math.Sqrt(1+tt*tt)
				s := tt * c
				for k := 0; k < n; k++ {
					akp, akq := a[k][p], a[k][q]
					a[k][p], a[k][q] = c*akp-s*akq, s*akp+c*akq
				}
				for k := 0; k < n; k++ {
					apk, aqk := a[p][k], a[q][k]
					a[p][k], a[q][k] = c*apk-s*aqk, s*apk+c*aqk
				}
			}
		}
	}
	eig := make([]float64, n)
	for v := range eig {
		eig[v] = a[v][v]
	}
	sort.Float64s(eig)
	return eig
}

// denseSLEM is the oracle's μ: the largest modulus once the top
// eigenvalue 1 of a connected graph is set aside.
func denseSLEM(t *testing.T, g *graph.Graph) float64 {
	t.Helper()
	eig := denseSpectrum(t, g)
	n := len(eig)
	if math.Abs(eig[n-1]-1) > 1e-12 {
		t.Fatalf("oracle: top eigenvalue %v, want 1", eig[n-1])
	}
	return math.Max(-eig[0], eig[n-2])
}

// TestEquivalenceLanczosVsDenseOracle checks the Lanczos μ against the
// dense Jacobi oracle on small graphs of every spectral shape the
// measurement meets: random (GNM), SLEM at λₙ (odd cycle), bipartite
// with μ = 1 (star, even cycle, grid), preferential attachment, and
// clustered graphs whose λ₂ sits in a cluster near 1.
func TestEquivalenceLanczosVsDenseOracle(t *testing.T) {
	graphs := map[string]*graph.Graph{}
	add := func(name string, g *graph.Graph, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		graphs[name] = g
	}
	g, err := gen.GNM(120, 480, 3)
	add("gnm", g, err)
	g, err = gen.Cycle(31)
	add("odd-cycle", g, err)
	g, err = gen.Cycle(30)
	add("even-cycle", g, err)
	g, err = gen.Star(40)
	add("star", g, err)
	g, err = gen.Grid(6, 9)
	add("grid", g, err)
	g, err = gen.BarabasiAlbert(150, 3, 5)
	add("ba", g, err)
	graphs["clustered"] = mustClusteredPA(t, 4, 30, 3, 1, 11)
	graphs["clustered-tight"] = mustClusteredPA(t, 3, 40, 2, 1, 12)

	for name, g := range graphs {
		if !graph.IsConnected(g) {
			t.Fatalf("%s: test graph is not connected", name)
		}
		want := denseSLEM(t, g)
		for _, seed := range []int64{1, 2} {
			r, err := SLEM(g, Config{Seed: seed, Workers: 1})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !r.Converged {
				t.Fatalf("%s seed %d: not converged after %d steps", name, seed, r.Iterations)
			}
			if d := math.Abs(r.SLEM - want); d > 1e-9 {
				t.Errorf("%s seed %d: Lanczos μ %.15f, dense μ %.15f (diff %.3g, %d steps)",
					name, seed, r.SLEM, want, d, r.Iterations)
			}
		}
	}
}

// TestEquivalenceCompleteGraphBreaksDown checks the invariant-subspace
// exit: on K_n, N restricted to the complement of φ is −1/(n−1) times
// the identity, so the first Lanczos step spans an invariant subspace
// and the run must end there, converged, with μ = 1/(n−1).
func TestEquivalenceCompleteGraphBreaksDown(t *testing.T) {
	for _, n := range []int{3, 10, 60} {
		g, err := gen.Complete(n)
		if err != nil {
			t.Fatal(err)
		}
		r, err := SLEM(g, Config{Seed: 1, Tolerance: MinTolerance})
		if err != nil {
			t.Fatal(err)
		}
		want := 1 / float64(n-1)
		if !r.Converged || r.Iterations != 1 {
			t.Errorf("K%d: converged=%v after %d steps, want convergence after 1", n, r.Converged, r.Iterations)
		}
		if d := math.Abs(r.SLEM - want); d > 1e-12 {
			t.Errorf("K%d: μ = %v, want %v", n, r.SLEM, want)
		}
	}
}

// TestEquivalenceSLEMAtLowestEigenvalue pins the both-ends rule: on a
// graph whose SLEM is |λₙ| with λ₂ well below it, tracking only the top
// of the spectrum would report λ₂. The oracle confirms the shape first.
func TestEquivalenceSLEMAtLowestEigenvalue(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"odd-cycle", func() *graph.Graph {
			g, err := gen.Cycle(9)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}()},
		{"near-bipartite", nearBipartite(t, 30, 40)},
	} {
		eig := denseSpectrum(t, tc.g)
		n := len(eig)
		lambda2, lambdaN := eig[n-2], eig[0]
		if -lambdaN < lambda2+0.05 {
			t.Fatalf("%s: oracle λ₂ = %v, λₙ = %v; want |λₙ| clearly above λ₂", tc.name, lambda2, lambdaN)
		}
		r, err := SLEM(tc.g, Config{Seed: 3, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(r.SLEM + lambdaN); !r.Converged || d > 1e-9 {
			t.Errorf("%s: μ = %.15f (converged=%v), want |λₙ| = %.15f", tc.name, r.SLEM, r.Converged, -lambdaN)
		}
	}
}

// nearBipartite returns a complete bipartite graph K_{a,b} with one
// extra edge inside the first side: connected and non-bipartite, with
// λₙ close to −1 and λ₂ close to 0.
func nearBipartite(t *testing.T, a, b int) *graph.Graph {
	t.Helper()
	bld := graph.NewBuilder(a + b)
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			if err := bld.AddEdge(graph.NodeID(u), graph.NodeID(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := bld.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	return bld.Build()
}

// TestEquivalenceNoFalseConvergence is the regression for the stop
// rule: on the clustered-PA slow-mixer graph (8 communities of 1000), a
// loose Tolerance of 1e-6 must still land within 1e-6 of the 1e-12
// answer (μ = 0.99992768). Power iteration's successive-estimate rule
// stopped 8e-5 to 3.5e-4 low here at seeds 1-3, because a slowly moving
// estimate looks converged; a residual bound cannot be fooled that way.
func TestEquivalenceNoFalseConvergence(t *testing.T) {
	g := mustClusteredPA(t, 8, 1000, 6, 4, 1)
	tight, err := SLEM(g, Config{Seed: 1, Tolerance: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3} {
		loose, err := SLEM(g, Config{Seed: seed, Tolerance: 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		if !tight.Converged || !loose.Converged {
			t.Fatalf("seed %d: converged tight=%v loose=%v", seed, tight.Converged, loose.Converged)
		}
		if d := math.Abs(loose.SLEM - tight.SLEM); d > 1e-6 {
			t.Errorf("seed %d: μ at tolerance 1e-6 is %.9f, at 1e-12 %.9f (diff %.3g)", seed, loose.SLEM, tight.SLEM, d)
		}
	}
}
