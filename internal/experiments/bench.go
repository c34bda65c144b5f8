package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/trustnet/trustnet/internal/expansion"
	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/jobs"
	"github.com/trustnet/trustnet/internal/kernels"
	"github.com/trustnet/trustnet/internal/spectral"
	"github.com/trustnet/trustnet/internal/walk"
)

// BenchEntry is one kernel timed at workers=1 versus workers=N.
type BenchEntry struct {
	// Name is the kernel: mixing (Eq. 2 sampling method), expansion
	// (Eq. 4 envelopes), or spectral (Lanczos SLEM).
	Name string `json:"name"`
	// Dataset is the registry graph the kernel ran on.
	Dataset string `json:"dataset"`
	// Workers is the parallel worker count compared against 1.
	Workers int `json:"workers"`
	// SequentialSeconds and ParallelSeconds are the best-of-Repeats wall
	// times at workers=1 and workers=Workers.
	SequentialSeconds float64 `json:"sequential_seconds"`
	ParallelSeconds   float64 `json:"parallel_seconds"`
	// Speedup is SequentialSeconds / ParallelSeconds.
	Speedup float64 `json:"speedup"`
	// Repeats is how many times each variant ran (best time kept).
	Repeats int `json:"repeats"`
	// Identical reports the determinism contract held: the workers=1 and
	// workers=N runs produced bit-for-bit identical results.
	Identical bool `json:"identical"`
}

// BenchResult is the perf trajectory point cmd/experiments bench writes to
// out/BENCH_parallel.json. Machine fields qualify the numbers: speedup on
// a single-core runner is ~1× by construction.
type BenchResult struct {
	GoVersion  string       `json:"go_version"`
	NumCPU     int          `json:"num_cpu"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Workers    int          `json:"workers"`
	Quick      bool         `json:"quick"`
	Seed       int64        `json:"seed"`
	UnixTime   int64        `json:"unix_time"`
	Entries    []BenchEntry `json:"entries"`
}

// benchKernel is one measurement variant: run executes it at the given
// worker count and returns a fingerprint of the result, so the harness can
// check the workers=1 and workers=N runs agree bit-for-bit.
type benchKernel struct {
	name    string
	dataset string
	run     func(ctx context.Context, g *graph.Graph, workers int) (fingerprint string, err error)
}

// Bench times the three parallel measurement kernels at workers=1 vs
// workers=N and reports the wall-clock speedups — the repo's benchmark
// trajectory. workers <= 0 defaults to GOMAXPROCS; each variant runs
// repeats times (floored at 1) and keeps the best time, damping scheduler
// noise.
func Bench(ctx context.Context, opts Options, workers, repeats int) (*BenchResult, error) {
	opts.fill()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if repeats < 1 {
		repeats = 1
	}
	dataset := "epinion"
	if opts.Quick {
		dataset = "rice-grad"
	}

	mixingCfg := walk.MixingConfig{
		MaxSteps: opts.pick(30, 100),
		Sources:  opts.pick(8, 64),
		Seed:     opts.Seed,
	}
	expansionSources := opts.pick(64, 512)
	spectralCfg := spectral.Config{Tolerance: 1e-9, Seed: opts.Seed}

	kernels := []benchKernel{
		{
			name: "mixing", dataset: dataset,
			run: func(ctx context.Context, g *graph.Graph, w int) (string, error) {
				cfg := mixingCfg
				cfg.Workers = w
				mr, err := walk.MeasureMixing(ctx, g, cfg)
				if err != nil {
					return "", err
				}
				last := len(mr.MeanTVD) - 1
				return fmt.Sprintf("%x/%x/%x", mr.MeanTVD[last], mr.MaxTVD[last], mr.MinTVD[last]), nil
			},
		},
		{
			name: "expansion", dataset: dataset,
			run: func(ctx context.Context, g *graph.Graph, w int) (string, error) {
				srcs, err := expansion.SampledSources(g, expansionSources, opts.Seed)
				if err != nil {
					return "", err
				}
				er, err := expansion.Measure(ctx, g, expansion.Config{Sources: srcs, Workers: w})
				if err != nil {
					return "", err
				}
				fp := fmt.Sprintf("%d/%d", er.MaxEccentricity, len(er.FactorBySetSize.Keys()))
				for _, k := range er.FactorBySetSize.Keys() {
					s, _ := er.FactorBySetSize.Get(k)
					fp += fmt.Sprintf("/%x", s.Mean())
				}
				return fp, nil
			},
		},
		{
			name: "spectral", dataset: dataset,
			run: func(ctx context.Context, g *graph.Graph, w int) (string, error) {
				cfg := spectralCfg
				cfg.Workers = w
				sr, err := spectral.SLEM(g, cfg)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("%x/%d", sr.SLEM, sr.Iterations), nil
			},
		},
	}

	res := &BenchResult{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		Quick:      opts.Quick,
		Seed:       opts.Seed,
		UnixTime:   time.Now().Unix(),
	}
	for _, k := range kernels {
		g, err := opts.graphFor(k.dataset)
		if err != nil {
			return nil, err
		}
		e := BenchEntry{Name: k.name, Dataset: k.dataset, Workers: workers, Repeats: repeats}
		var seqFP, parFP string
		e.SequentialSeconds, seqFP, err = timeKernel(ctx, k, g, 1, repeats)
		if err != nil {
			return nil, fmt.Errorf("experiments: bench %s workers=1: %w", k.name, err)
		}
		e.ParallelSeconds, parFP, err = timeKernel(ctx, k, g, workers, repeats)
		if err != nil {
			return nil, fmt.Errorf("experiments: bench %s workers=%d: %w", k.name, workers, err)
		}
		if e.ParallelSeconds > 0 {
			e.Speedup = e.SequentialSeconds / e.ParallelSeconds
		}
		e.Identical = seqFP == parFP
		res.Entries = append(res.Entries, e)
	}
	return res, nil
}

// KernelBenchEntry is one batched kernel timed against its naive
// per-source loop, both at workers=1 so the numbers isolate the kernel's
// algorithmic win from fan-out parallelism.
type KernelBenchEntry struct {
	// Name is the kernel: walk-block (blocked multi-source propagation
	// vs the per-source dense loop) or bfs64 (64-way bit-parallel BFS vs
	// scalar all-cores expansion).
	Name string `json:"name"`
	// Dataset names the graph; Nodes/Edges record its size.
	Dataset string `json:"dataset"`
	Nodes   int    `json:"nodes"`
	Edges   int64  `json:"edges"`
	// Cores or sources measured, and walk steps where applicable.
	Sources int `json:"sources"`
	Steps   int `json:"steps,omitempty"`
	// NaiveSeconds and KernelSeconds are best-of-Repeats wall times.
	NaiveSeconds  float64 `json:"naive_seconds"`
	KernelSeconds float64 `json:"kernel_seconds"`
	// Speedup is NaiveSeconds / KernelSeconds.
	Speedup float64 `json:"speedup"`
	Repeats int     `json:"repeats"`
	// Identical reports that the naive and kernel runs produced
	// bit-for-bit identical results; Fingerprint is the shared FNV-1a
	// digest over every float bit and level count of the result.
	Identical   bool   `json:"identical"`
	Fingerprint string `json:"fingerprint"`
}

// KernelBenchResult is the perf baseline cmd/experiments bench writes to
// out/BENCH_kernels.json: naive-vs-kernel timings with result
// fingerprints, qualified by the machine fields.
type KernelBenchResult struct {
	GoVersion  string             `json:"go_version"`
	NumCPU     int                `json:"num_cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Quick      bool               `json:"quick"`
	Seed       int64              `json:"seed"`
	UnixTime   int64              `json:"unix_time"`
	Entries    []KernelBenchEntry `json:"entries"`
}

// Identical reports whether every entry's naive and kernel fingerprints
// agreed; callers treat false as a failure (the determinism contract is
// part of the baseline, not just the timings).
func (r *KernelBenchResult) Identical() bool {
	for _, e := range r.Entries {
		if !e.Identical {
			return false
		}
	}
	return true
}

// benchKernelGraph generates the 10⁴-node preferential-attachment graph
// the kernel baseline is measured on. It is deliberately not a registry
// dataset: the registry sizes are tuned for the paper's figures, while
// the kernel baseline wants a graph big enough (≥ kernels.MinKernelNodes)
// that the batched kernels are the auto-selected path.
func benchKernelGraph() (*graph.Graph, error) {
	g, err := gen.BarabasiAlbert(10000, 8, 42)
	if err != nil {
		return nil, err
	}
	if !graph.IsConnected(g) {
		g, _ = graph.LargestComponent(g)
	}
	return g, nil
}

// BenchKernels times the blocked walk propagation and the bit-parallel
// BFS against their naive per-source counterparts at workers=1 on the
// 10⁴-node synthetic graph, checking that both variants produce
// bit-for-bit identical results. Quick mode shrinks the sampled sources
// and steps (CI's smoke run); the committed baseline uses the full
// configuration, whose expansion pass is the paper's exact all-cores
// O(nm) measurement.
func BenchKernels(ctx context.Context, opts Options, repeats int) (*KernelBenchResult, error) {
	opts.fill()
	if repeats < 1 {
		repeats = 1
	}
	g, err := benchKernelGraph()
	if err != nil {
		return nil, fmt.Errorf("experiments: bench kernels: %w", err)
	}

	res := &KernelBenchResult{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      opts.Quick,
		Seed:       opts.Seed,
		UnixTime:   time.Now().Unix(),
	}

	// Blocked walk propagation vs per-source dense loop.
	mixingCfg := walk.MixingConfig{
		MaxSteps: opts.pick(12, 30),
		Sources:  opts.pick(16, 64),
		Seed:     opts.Seed,
		Workers:  1,
	}
	mixing := func(block int) (string, error) {
		cfg := mixingCfg
		cfg.BlockSize = block
		mr, err := walk.MeasureMixing(ctx, g, cfg)
		if err != nil {
			return "", err
		}
		return jobs.MixingFingerprint(mr), nil
	}
	walkEntry := KernelBenchEntry{
		Name: "walk-block", Dataset: "ba-10k",
		Nodes: g.NumNodes(), Edges: g.NumEdges(),
		Sources: mixingCfg.Sources, Steps: mixingCfg.MaxSteps, Repeats: repeats,
	}
	if err := timeVariants(&walkEntry, repeats,
		func() (string, error) { return mixing(1) },
		func() (string, error) { return mixing(kernels.DefaultBlockWidth) },
	); err != nil {
		return nil, fmt.Errorf("experiments: bench walk-block: %w", err)
	}
	res.Entries = append(res.Entries, walkEntry)

	// Bit-parallel BFS vs scalar expansion. Full mode measures every node
	// as a core (the exact O(nm) form); quick samples.
	var sources []graph.NodeID
	if opts.Quick {
		sources, err = expansion.SampledSources(g, 1024, opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: bench bfs64: %w", err)
		}
	}
	nCores := len(sources)
	if sources == nil {
		nCores = g.NumNodes()
	}
	expand := func(batch int) (string, error) {
		er, err := expansion.Measure(ctx, g, expansion.Config{Sources: sources, Workers: 1, BFSBatch: batch})
		if err != nil {
			return "", err
		}
		return jobs.ExpansionFingerprint(er), nil
	}
	bfsEntry := KernelBenchEntry{
		Name: "bfs64", Dataset: "ba-10k",
		Nodes: g.NumNodes(), Edges: g.NumEdges(),
		Sources: nCores, Repeats: repeats,
	}
	if err := timeVariants(&bfsEntry, repeats,
		func() (string, error) { return expand(1) },
		func() (string, error) { return expand(kernels.BFSBatchWidth) },
	); err != nil {
		return nil, fmt.Errorf("experiments: bench bfs64: %w", err)
	}
	res.Entries = append(res.Entries, bfsEntry)
	return res, nil
}

// timeVariants times the naive and kernel variants of one entry (best of
// repeats each) and records the speedup and fingerprint agreement.
func timeVariants(e *KernelBenchEntry, repeats int, naive, kernel func() (string, error)) error {
	naiveSec, naiveFP, err := timeVariant(naive, repeats)
	if err != nil {
		return err
	}
	kernelSec, kernelFP, err := timeVariant(kernel, repeats)
	if err != nil {
		return err
	}
	e.NaiveSeconds, e.KernelSeconds = naiveSec, kernelSec
	if kernelSec > 0 {
		e.Speedup = naiveSec / kernelSec
	}
	e.Identical = naiveFP == kernelFP
	e.Fingerprint = kernelFP
	return nil
}

// timeVariant runs fn repeats times, keeping the best wall time, and
// errors if the fingerprint wavers across repeats.
func timeVariant(fn func() (string, error), repeats int) (float64, string, error) {
	best := 0.0
	fp := ""
	for r := 0; r < repeats; r++ {
		start := time.Now()
		f, err := fn()
		if err != nil {
			return 0, "", err
		}
		sec := time.Since(start).Seconds()
		if r == 0 || sec < best {
			best = sec
		}
		if r > 0 && f != fp {
			return 0, "", fmt.Errorf("variant not deterministic across repeats")
		}
		fp = f
	}
	return best, fp, nil
}

// timeKernel runs one kernel variant repeats times and returns the best
// wall time plus the result fingerprint (identical across repeats by the
// determinism contract).
func timeKernel(ctx context.Context, k benchKernel, g *graph.Graph, workers, repeats int) (float64, string, error) {
	best := 0.0
	fp := ""
	for r := 0; r < repeats; r++ {
		start := time.Now()
		f, err := k.run(ctx, g, workers)
		if err != nil {
			return 0, "", err
		}
		sec := time.Since(start).Seconds()
		if r == 0 || sec < best {
			best = sec
		}
		if r > 0 && f != fp {
			return 0, "", fmt.Errorf("kernel %s not deterministic across repeats", k.name)
		}
		fp = f
	}
	return best, fp, nil
}
