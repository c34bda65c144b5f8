// Package spectral computes the second largest eigenvalue modulus (SLEM)
// μ of the random-walk transition matrix P and the Sinclair mixing-time
// bounds the paper uses in §III-C:
//
//	(μ/(1-μ))·log(1/2ε)  <=  T(ε)  <=  (log n + log(1/ε)) / (1-μ)
//
// P = D⁻¹A is similar to the symmetric N = D^(-1/2) A D^(-1/2), whose top
// eigenvector is known in closed form (φ_v ∝ √deg(v), eigenvalue 1 on a
// connected graph), so μ = max(|λ₂|, |λₙ|) is the spectral radius of N
// with φ deflated. Lanczos on that deflated N — the plain three-term
// recurrence, re-deflating φ every step and storing no Krylov basis —
// builds a tridiagonal T_k whose extreme eigenvalues θ_min and θ_max
// approach λₙ and λ₂ from inside. The run stops when both extreme Ritz
// pairs have a residual of at most Config.Tolerance and returns
// μ = max(|θ_min|, |θ_max|): either end can carry the SLEM. Without a
// stored basis the vectors lose orthogonality, which only duplicates
// converged Ritz values; it never moves the extreme ones.
//
// Complexity: a step is one sparse mat-vec, O(m), plus O(n) vector work
// and a Sturm bisection of T_k, O(k) per halving: O(k·(m+n) + k²) for k
// steps, in O(n + k) memory. The mat-vec is row-partitioned across
// parallel workers in gather form — worker w computes
// y[v] = Σ_{u∈N(v)} x[u]/√(deg u · deg v) for a contiguous block of rows
// v — so every row's neighbor sum is accumulated by exactly one worker in
// a fixed order, the scalar recurrences run sequentially, and the SLEM is
// bit-for-bit identical at any worker count.
package spectral

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/obs"
	"github.com/trustnet/trustnet/internal/parallel"
)

// Observability instruments for the SLEM measurement, resolved once at
// init and written once per call, never inside the Lanczos loop. The
// iteration counter counts steps (one mat-vec each); the residual gauge
// holds the larger extreme Ritz residual bound at the last step.
var (
	obsSLEMIterations = obs.Default().Counter("spectral.slem.iterations")
	obsSLEMConverged  = obs.Default().Counter("spectral.slem.converged")
	obsSLEMPartial    = obs.Default().Counter("spectral.slem.partial")
	obsSLEMResumed    = obs.Default().Counter("spectral.slem.resumed_iterations")
	obsSLEMResidual   = obs.Default().Gauge("spectral.slem.residual")
)

// MinTolerance is the residual floor: rounding in the mat-vec leaves
// residuals of about 1e-16, so a Tolerance below this cannot be
// certified. A Lanczos step whose new direction has norm at most
// MinTolerance means the Krylov space is invariant; the run ends there
// as converged, since its Ritz values are then exact eigenvalues.
const MinTolerance = 1e-14

// Config controls the Lanczos iteration.
type Config struct {
	// Tolerance bounds the residual ‖N y − θ y‖ of both extreme Ritz
	// pairs: the run converges when each is at most Tolerance. A Ritz
	// value with residual r lies within r of an eigenvalue of N, so μ is
	// certified to about Tolerance. Defaults to 1e-10 when zero.
	Tolerance float64
	// MaxIterations bounds the Lanczos step count (one mat-vec per
	// step). Defaults to 50000 when 0.
	MaxIterations int
	// Seed drives the random starting vector.
	Seed int64
	// Workers bounds the row-partitioned mat-vec parallelism; <= 0 uses
	// GOMAXPROCS. The SLEM is bit-for-bit identical at any worker count.
	Workers int
	// BestEffort salvages a deadline-hit run: when ctx is canceled or
	// times out mid-iteration, SLEMContext returns the current estimate
	// (Result.Partial true, Coverage < 1) instead of the context error,
	// as long as at least one step completed.
	BestEffort bool
	// Resume continues the recurrence from a checkpoint taken by an
	// earlier (interrupted) run of the *same* graph and configuration.
	// The checkpointed vectors and T entries are used verbatim, so the
	// resumed run is bit-identical to the uninterrupted one.
	Resume *Checkpoint
}

// Checkpoint is the resumable state of a Lanczos run after Iterations
// completed steps: the next Lanczos vector Q, the one before it QPrev,
// the diagonal α₁..α_k of T_k in Alpha, and its couplings β₁..β_k in
// Beta, where β_k is the norm that normalized Q. It is only produced
// after at least one step, and survives a JSON round trip through
// internal/resilience's store bit-for-bit.
type Checkpoint struct {
	Q          []float64 `json:"q"`
	QPrev      []float64 `json:"q_prev"`
	Alpha      []float64 `json:"alpha"`
	Beta       []float64 `json:"beta"`
	Iterations int       `json:"iterations"`
}

// check rejects a checkpoint that is not a Lanczos state for an n-node
// graph, such as an older version's power-iteration checkpoint.
func (c *Checkpoint) check(n int) error {
	k := c.Iterations
	ok := k >= 1 && len(c.Alpha) == k && len(c.Beta) == k && len(c.Q) == n && len(c.QPrev) == n
	for i := 0; ok && i < k; i++ {
		ok = math.Abs(c.Alpha[i]) < math.Inf(1) && c.Beta[i] > MinTolerance && c.Beta[i] < math.Inf(1)
	}
	if !ok {
		return fmt.Errorf("spectral: resume checkpoint is malformed for a %d-node graph (iterations %d)", n, k)
	}
	return nil
}

func (c *Config) fill() {
	if c.Tolerance <= 0 {
		c.Tolerance = 1e-10
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 50000
	}
}

// ErrNotConnected is returned when the graph is not connected: the SLEM of
// a disconnected graph is 1 and the walk never mixes, so measuring it is
// almost always a caller bug.
var ErrNotConnected = errors.New("spectral: graph is not connected")

// Result carries the SLEM measurement.
type Result struct {
	// SLEM is μ, the second largest eigenvalue modulus of P.
	SLEM float64
	// Iterations is the number of Lanczos steps (mat-vecs) performed,
	// including any resumed from a checkpoint.
	Iterations int
	// Converged reports whether both extreme Ritz residuals got within
	// Tolerance, or the Krylov space became invariant, before
	// MaxIterations.
	Converged bool
	// Partial reports that a best-effort run was cut short: SLEM is the
	// estimate after Iterations of the configured budget.
	Partial bool
	// Coverage is the fraction of the iteration budget spent — 1 on a
	// complete (converged or budget-exhausted) run, in (0, 1) on a
	// salvaged partial one.
	Coverage float64

	// ckpt is the resumable state; set only on partial results.
	ckpt *Checkpoint
}

// Checkpoint returns the resumable state of a partial result, or nil for
// a complete run (which has nothing left to resume).
func (r *Result) Checkpoint() *Checkpoint { return r.ckpt }

// SLEM computes the second largest eigenvalue modulus of the transition
// matrix of the simple random walk on g. It accepts any graph.View;
// because every Lanczos step streams the whole adjacency, non-CSR views
// are materialized once up front (graph.Materialize, cached by the view)
// and the copy is amortized across all steps.
func SLEM(v graph.View, cfg Config) (*Result, error) {
	return SLEMContext(context.Background(), v, cfg)
}

// SLEMContext is SLEM under a context: cancellation is honored between
// Lanczos steps, and with cfg.BestEffort a deadline-hit run returns its
// current estimate as a resumable partial result instead of an error.
// Resuming from the checkpoint of an interrupted run continues the exact
// recurrence: the final estimate is bit-identical to the uninterrupted
// computation.
func SLEMContext(ctx context.Context, v graph.View, cfg Config) (*Result, error) {
	cfg.fill()
	ctx, span := obs.StartSpan(ctx, "spectral.slem")
	defer span.End()
	n := v.NumNodes()
	if n < 2 {
		return nil, fmt.Errorf("spectral: need >= 2 nodes, got %d", n)
	}
	if v.NumEdges() == 0 {
		return nil, errors.New("spectral: graph has no edges")
	}
	if cfg.Resume != nil {
		if err := cfg.Resume.check(n); err != nil {
			return nil, err
		}
	}
	// The iteration needs aliased neighbor slices. A sharded substrate
	// already serves them shard by shard; anything else is materialized
	// once and the copy amortized across all iterations.
	var g graph.NeighborSlicer
	sg, sharded := graph.AsSharded(v)
	if sharded {
		g = sg
	} else {
		g = graph.Materialize(v)
	}
	if !graph.IsConnected(g) {
		return nil, ErrNotConnected
	}

	// φ = sqrt(deg)/||sqrt(deg)||: the top eigenvector of N.
	phi := make([]float64, n)
	invSqrtDeg := make([]float64, n)
	for v := range phi {
		phi[v] = math.Sqrt(float64(g.Degree(graph.NodeID(v))))
		invSqrtDeg[v] = 1 / phi[v]
	}
	normalize(phi)

	// The recurrence state: q is the Lanczos vector to multiply next,
	// qPrev the one before it, alpha and beta the entries of T. A fresh
	// run starts from a seeded random vector deflated against φ; a resume
	// takes the checkpoint VERBATIM — re-deflating or re-normalizing
	// would perturb the floats and break bit-identical resume.
	q, qPrev, w := make([]float64, n), make([]float64, n), make([]float64, n)
	var alpha, beta []float64
	if cfg.Resume != nil {
		copy(q, cfg.Resume.Q)
		copy(qPrev, cfg.Resume.QPrev)
		alpha = append([]float64(nil), cfg.Resume.Alpha...)
		beta = append([]float64(nil), cfg.Resume.Beta...)
		obsSLEMResumed.Add(int64(len(alpha)))
	} else {
		rng := rand.New(rand.NewSource(cfg.Seed))
		for v := range q {
			q[v] = rng.NormFloat64()
		}
		deflate(q, phi)
		if normalize(q) == 0 {
			return nil, errors.New("spectral: degenerate starting vector")
		}
	}

	// Row-partitioned y = N x, N_uv = 1/sqrt(deg u deg v) per edge, in
	// gather form: each block [lo, hi) is the only writer of its y rows,
	// and every row's neighbor sum is accumulated in adjacency order
	// whatever the partition — so the result is bit-for-bit identical at
	// any block or worker count. On a sharded substrate the partition
	// follows the shard ranges (one block per shard, the shards' natural
	// locality); otherwise the rows split into equal blocks. Below
	// parallelThreshold rows the fan-out runs on one worker: the
	// per-iteration goroutine spawn would cost more than the mat-vec, and
	// the gather order (hence the result) is the same either way.
	const parallelThreshold = 4096
	var spanLo, spanHi []int
	if sharded {
		for s := 0; s < sg.NumShards(); s++ {
			lo, hi := sg.Range(s)
			spanLo = append(spanLo, int(lo))
			spanHi = append(spanHi, int(hi))
		}
	} else {
		blocks := parallel.Workers(cfg.Workers, n)
		if n < parallelThreshold {
			blocks = 1
		}
		blockSize := (n + blocks - 1) / blocks
		for b := 0; b < blocks; b++ {
			lo := b * blockSize
			hi := lo + blockSize
			if hi > n {
				hi = n
			}
			spanLo = append(spanLo, lo)
			spanHi = append(spanHi, hi)
		}
	}
	workers := parallel.Workers(cfg.Workers, len(spanLo))
	if n < parallelThreshold {
		workers = 1
	}
	matVec := func(x, y []float64) {
		// ForEach with a background context cannot fail here: the only
		// error sources are fn errors and cancellation.
		_ = parallel.ForEach(context.Background(), workers, len(spanLo), func(_, b int) error {
			for v := spanLo[b]; v < spanHi[b]; v++ {
				sum := 0.0
				for _, u := range g.Neighbors(graph.NodeID(v)) {
					sum += x[u] * invSqrtDeg[u]
				}
				y[v] = sum * invSqrtDeg[v]
			}
			return nil
		})
	}

	startIt := len(alpha)
	res := &Result{Iterations: startIt, Coverage: 1}
	if startIt > 0 {
		lo, hi, _, _ := ritzEnds(alpha, beta)
		res.SLEM = max(-lo, hi)
	}
	resid := math.Inf(1)
	defer func() {
		obsSLEMIterations.Add(int64(res.Iterations - startIt))
		obsSLEMResidual.Set(resid)
		if res.Converged {
			obsSLEMConverged.Inc()
		}
	}()
	for len(alpha) < cfg.MaxIterations {
		if err := ctx.Err(); err != nil {
			if !cfg.BestEffort || len(alpha) == 0 {
				return nil, fmt.Errorf("spectral: %w", err)
			}
			// Salvage the running estimate and the recurrence state so
			// the caller can checkpoint and later resume it exactly.
			obsSLEMPartial.Inc()
			res.Partial = true
			res.Coverage = float64(len(alpha)) / float64(cfg.MaxIterations)
			res.ckpt = &Checkpoint{Q: q, QPrev: qPrev, Alpha: alpha, Beta: beta, Iterations: len(alpha)}
			return res, nil
		}
		// One step: w = N q re-deflated against φ, α = q·w, and
		// w −= α q + β q_prev leaves β times the next Lanczos vector.
		matVec(q, w)
		deflate(w, phi)
		a := 0.0
		for i := range w {
			a += q[i] * w[i]
		}
		bPrev := 0.0
		if k := len(beta); k > 0 {
			bPrev = beta[k-1]
		}
		b := 0.0
		for i := range w {
			w[i] -= a*q[i] + bPrev*qPrev[i]
			b += w[i] * w[i]
		}
		b = math.Sqrt(b)
		alpha = append(alpha, a)
		beta = append(beta, b)
		res.Iterations = len(alpha)

		lo, hi, resLo, resHi := ritzEnds(alpha, beta)
		res.SLEM = max(-lo, hi)
		resid = max(resLo, resHi)
		if resid <= cfg.Tolerance || b <= MinTolerance {
			res.Converged = true
			return res, nil
		}
		for i := range w {
			w[i] /= b
		}
		qPrev, q, w = q, w, qPrev
	}
	return res, nil
}

// ritzEnds returns the extreme eigenvalues lo <= hi of the tridiagonal T
// with diagonal alpha and off-diagonal beta[:k-1], and residual bounds
// for their Ritz pairs, which involve the trailing coupling beta[k-1].
func ritzEnds(alpha, beta []float64) (lo, hi, resLo, resHi float64) {
	bound := 0.0 // Gershgorin: every eigenvalue lies within ±bound
	for j, a := range alpha {
		r := math.Abs(a) + beta[j]
		if j > 0 {
			r += beta[j-1]
		}
		bound = max(bound, r)
	}
	off := beta[:len(alpha)-1]
	lo, hi = bisect(alpha, off, bound, 0), bisect(alpha, off, bound, len(alpha)-1)
	return lo, hi, ritzResidual(alpha, beta, lo), ritzResidual(alpha, beta, hi)
}

const (
	macheps = 0x1p-52
	pivmin  = 1e-300
)

// bisect returns T's i-th smallest eigenvalue (0-based) to absolute
// accuracy macheps·bound, given that every eigenvalue lies within ±bound.
func bisect(alpha, off []float64, bound float64, i int) float64 {
	a, b := -2*bound-pivmin, 2*bound+pivmin
	for m := a + (b-a)/2; b-a > macheps*bound && a < m && m < b; m = a + (b-a)/2 {
		if sturmCount(alpha, off, m) > i {
			b = m
		} else {
			a = m
		}
	}
	return a + (b-a)/2
}

// sturmCount returns the number of eigenvalues of T below x: the
// negative pivots of the LDLᵀ factorization of T − x·I, with LAPACK's
// guard replacing a vanishing pivot by −pivmin. Signs are counted from
// the sign bit, avoiding a mispredicted branch per row.
func sturmCount(alpha, off []float64, x float64) (c int) {
	d := alpha[0] - x
	for j := 0; ; j++ {
		if math.Abs(d) < pivmin {
			d = -pivmin
		}
		c += int(math.Float64bits(d) >> 63)
		if j == len(off) {
			return c
		}
		d = alpha[j+1] - x - off[j]*off[j]/d
	}
}

// ritzResidual bounds ‖N y − θ y‖ for the Ritz vector y = V s of T's
// eigenvalue θ. s is solved from the last row up with s_k = 1: an
// extreme eigenvector decays toward s_k as it converges, so this runs
// in the stable, growing direction. The bound is (β_k|s_k| + |r|)/‖s‖,
// where r = (α₁−θ)s₁ + β₁s₂ is the first row's leftover, the part that
// θ's own error leaves in T s − θ s.
func ritzResidual(alpha, beta []float64, theta float64) float64 {
	const big = 1e100
	sk, cur, next, norm2 := 1.0, 1.0, 0.0, 1.0 // s_k, s_j, s_{j+1}, ‖s‖², rescaled together
	for j := len(alpha) - 1; j > 0; j-- {
		prev := ((theta-alpha[j])*cur - beta[j]*next) / beta[j-1]
		if math.Abs(prev) > big {
			prev, cur, sk, norm2 = prev/big, cur/big, sk/big, norm2/big/big
		}
		next, cur = cur, prev
		norm2 += cur * cur
	}
	r := (alpha[0]-theta)*cur + beta[0]*next
	return (beta[len(beta)-1]*math.Abs(sk) + math.Abs(r)) / math.Sqrt(norm2)
}

// deflate removes the component of x along the unit vector phi.
func deflate(x, phi []float64) {
	dot := 0.0
	for i := range x {
		dot += x[i] * phi[i]
	}
	for i := range x {
		x[i] -= dot * phi[i]
	}
}

// normalize scales x to unit 2-norm and returns the previous norm.
func normalize(x []float64) float64 {
	norm := 0.0
	for _, v := range x {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		return 0
	}
	for i := range x {
		x[i] /= norm
	}
	return norm
}

// Bounds holds the Sinclair mixing-time bounds derived from μ.
type Bounds struct {
	Lower float64
	Upper float64
}

// CheegerLower returns the Cheeger lower bound on graph conductance
// implied by the spectral gap: every cut of the graph has conductance at
// least (1-λ₂)/2, where λ₂ is the second eigenvalue of the transition
// matrix. Since μ >= λ₂, (1-μ)/2 is a valid (possibly weaker) bound, and
// that is what this function computes from the measured SLEM. It ties the
// mixing measurement to the expansion measurement: a fast mixer provably
// has no sparse cuts.
func CheegerLower(mu float64) (float64, error) {
	if mu < 0 || mu > 1 {
		return 0, fmt.Errorf("spectral: cheeger bound needs mu in [0,1], got %v", mu)
	}
	return (1 - mu) / 2, nil
}

// MixingBounds evaluates the Sinclair bounds for a graph with n nodes,
// SLEM mu, and variation-distance target eps.
func MixingBounds(n int, mu, eps float64) (Bounds, error) {
	if n < 2 {
		return Bounds{}, fmt.Errorf("spectral: bounds need n >= 2, got %d", n)
	}
	if mu <= 0 || mu >= 1 {
		return Bounds{}, fmt.Errorf("spectral: bounds need mu in (0,1), got %v", mu)
	}
	if eps <= 0 || eps >= 1 {
		return Bounds{}, fmt.Errorf("spectral: bounds need eps in (0,1), got %v", eps)
	}
	return Bounds{
		Lower: mu / (1 - mu) * math.Log(1/(2*eps)),
		Upper: (math.Log(float64(n)) + math.Log(1/eps)) / (1 - mu),
	}, nil
}
