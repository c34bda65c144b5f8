package experiments

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"github.com/trustnet/trustnet/internal/expansion"
	"github.com/trustnet/trustnet/internal/faults"
	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/incremental"
	"github.com/trustnet/trustnet/internal/kcore"
	"github.com/trustnet/trustnet/internal/parallel"
	"github.com/trustnet/trustnet/internal/report"
	"github.com/trustnet/trustnet/internal/spectral"
)

// epochSweepGraph generates the community graph the epoch sweep runs
// on. It is clustered rather than plain preferential-attachment so the
// coreness landscape is diverse: a delta's subcores stay community-
// sized, which is the regime the incremental core repair is built for
// (a single-plateau BA graph legitimately falls back every insertion).
func epochSweepGraph(opts *Options) (*graph.Graph, error) {
	g, _, err := gen.ClusteredPA(gen.ClusteredPAConfig{
		Communities:   opts.pick(10, 50),
		CommunitySize: 200,
		Attach:        8,
		Bridges:       4,
		Seed:          97,
	})
	return g, err
}

// epochSweepFaultConfig is the drifting fault schedule the sweep
// advances through: stationary marginals match the churn experiments,
// but consecutive epochs evolve (small deltas) instead of redrawing.
func epochSweepFaultConfig(seed int64) faults.Config {
	return faults.Config{Churn: 0.1, EdgeLoss: 0.05, Drift: 0.005, Seed: seed}
}

// epochSweepSources samples the BFS envelope sources on a stream
// decorrelated from the fault schedule. graph.SampleNodes and the
// epoch-0 churn draw both shuffle the node list from a raw
// rand.NewSource, so handing both the root seed would make the sampled
// sources exactly the churned-out prefix of the same permutation —
// every source dead at epoch 0.
func epochSweepSources(g *graph.Graph, opts *Options) ([]graph.NodeID, error) {
	return expansion.SampledSources(g, opts.pick(128, 1024), parallel.SeedFor(opts.Seed, 0))
}

// EpochSweepPoint is one epoch's structural measurements.
type EpochSweepPoint struct {
	Epoch           int
	Degeneracy      int
	SLEM            float64
	ComponentSize   int
	MaxEccentricity int
	// CoreIncremental reports whether the coreness repair ran
	// incrementally this epoch (always false in full mode and at epoch 0).
	CoreIncremental bool
}

// EpochSweepResult tracks the three §III structural metrics across a
// drifting fault schedule, measured either from scratch every epoch or
// through the incremental maintainers (Options.Incremental).
type EpochSweepResult struct {
	Points      []EpochSweepPoint
	Incremental bool
	// Seconds is the wall time of the measurement loop (excluding graph
	// generation), so the sweep doubles as a coarse timing probe.
	Seconds float64
}

// Table renders the sweep.
func (r *EpochSweepResult) Table() (*report.Table, error) {
	mode := "full recompute per epoch"
	if r.Incremental {
		mode = "incremental maintainers"
	}
	t := report.NewTable(
		fmt.Sprintf("Epoch sweep: structural metrics under drifting faults (%s)", mode),
		"Epoch", "Degeneracy", "mu", "Component", "Max ecc", "Core repair")
	for _, p := range r.Points {
		repair := "full"
		if p.CoreIncremental {
			repair = "incremental"
		}
		if err := t.AddRow(report.Int(p.Epoch), report.Int(p.Degeneracy),
			report.Float(p.SLEM, 4), report.Int(p.ComponentSize),
			report.Int(p.MaxEccentricity), repair); err != nil {
			return nil, err
		}
	}
	t.AddNote(fmt.Sprintf("measurement loop: %.2fs", r.Seconds))
	return t, nil
}

// EpochSweep measures degeneracy, SLEM, and the expansion envelope at
// every epoch of a drifting fault schedule. With Options.Incremental
// the three measurements ride the internal/incremental maintainers;
// otherwise each epoch recomputes from scratch. Both modes walk
// identical schedules, so their tables are identical.
func EpochSweep(ctx context.Context, opts Options) (*EpochSweepResult, error) {
	opts.fill()
	g, err := epochSweepGraph(&opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: epoch sweep: %w", err)
	}
	srcs, err := epochSweepSources(g, &opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: epoch sweep: %w", err)
	}
	ecfg := incremental.EngineConfig{
		Sources:  srcs,
		Spectral: spectral.Config{Tolerance: 1e-8, Seed: opts.Seed, Workers: opts.Workers},
		Workers:  opts.Workers,
	}
	epochs := opts.pick(4, 16)
	m, err := faults.New(g, epochSweepFaultConfig(opts.Seed))
	if err != nil {
		return nil, fmt.Errorf("experiments: epoch sweep: %w", err)
	}

	res := &EpochSweepResult{Incremental: opts.Incremental}
	start := time.Now()
	var en *incremental.Engine
	if opts.Incremental {
		if en, err = incremental.NewEngine(m, ecfg); err != nil {
			return nil, fmt.Errorf("experiments: epoch sweep: %w", err)
		}
	}
	for e := 0; e < epochs; e++ {
		coreInc := false
		var meas *incremental.EpochMeasurement
		if en != nil {
			if e > 0 {
				coreInc = en.Advance()
			}
			if meas, err = en.Measure(ctx); err != nil {
				return nil, fmt.Errorf("experiments: epoch sweep epoch %d: %w", e, err)
			}
		} else {
			if e > 0 {
				m.AdvanceEpoch()
			}
			if meas, err = incremental.MeasureFull(ctx, m.View(), ecfg); err != nil {
				return nil, fmt.Errorf("experiments: epoch sweep epoch %d: %w", e, err)
			}
		}
		res.Points = append(res.Points, EpochSweepPoint{
			Epoch:           e,
			Degeneracy:      meas.Degeneracy,
			SLEM:            meas.SLEM.SLEM,
			ComponentSize:   meas.ComponentSize,
			MaxEccentricity: meas.Expansion.MaxEccentricity,
			CoreIncremental: coreInc,
		})
	}
	res.Seconds = time.Since(start).Seconds()
	return res, nil
}

// IncrementalBenchEntry is the epoch sweep timed two ways: full
// recompute at every epoch against the incremental maintainers, over
// identical drifting fault schedules.
type IncrementalBenchEntry struct {
	Name    string `json:"name"`
	Dataset string `json:"dataset"`
	Nodes   int    `json:"nodes"`
	Edges   int64  `json:"edges"`
	// Epochs is the sweep length; Sources the BFS envelope source count.
	Epochs  int `json:"epochs"`
	Sources int `json:"sources"`
	// FullSeconds and IncrementalSeconds are best-of-Repeats wall times
	// for the two variants, end to end (including the incremental
	// variant's epoch-0 initialization).
	FullSeconds        float64 `json:"full_seconds"`
	IncrementalSeconds float64 `json:"incremental_seconds"`
	// Speedup is FullSeconds / IncrementalSeconds.
	Speedup float64 `json:"speedup"`
	Repeats int     `json:"repeats"`
	// CoreIncrementalEpochs counts epochs (of Epochs-1 advances) whose
	// coreness repair ran incrementally rather than falling back.
	CoreIncrementalEpochs int `json:"core_incremental_epochs"`
	// Identical reports the measurements (per-node cores, every
	// per-source BFS level count, component size, SLEM bits and step
	// count) were bit-for-bit identical across variants at every epoch;
	// Fingerprint is the shared FNV-1a digest.
	Identical   bool   `json:"identical"`
	Fingerprint string `json:"fingerprint"`
}

// IncrementalBenchResult is the incremental-measurement baseline
// cmd/experiments bench writes to out/BENCH_incremental.json,
// qualified by the machine fields.
type IncrementalBenchResult struct {
	GoVersion  string                  `json:"go_version"`
	NumCPU     int                     `json:"num_cpu"`
	GOMAXPROCS int                     `json:"gomaxprocs"`
	Quick      bool                    `json:"quick"`
	Seed       int64                   `json:"seed"`
	UnixTime   int64                   `json:"unix_time"`
	Entries    []IncrementalBenchEntry `json:"entries"`
}

// Identical reports whether every entry's variants produced identical
// fingerprints. Callers treat false as a failure — the variants replay
// the same schedule, so any divergence is a repair bug, not noise.
func (r *IncrementalBenchResult) Identical() bool {
	for _, e := range r.Entries {
		if !e.Identical {
			return false
		}
	}
	return true
}

// epochFingerprint folds one epoch's measurements into h: every node's
// coreness, every source's BFS level counts, the largest-component
// size, and the SLEM's bits and Lanczos step count.
func epochFingerprint(h interface{ Write(p []byte) (int, error) }, cores []int, levels [][]int64, compSize int, slem *spectral.Result) {
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, c := range cores {
		put(uint64(c))
	}
	for _, ls := range levels {
		put(uint64(len(ls)))
		for _, l := range ls {
			put(uint64(l))
		}
	}
	put(uint64(compSize))
	put(math.Float64bits(slem.SLEM))
	put(uint64(slem.Iterations))
}

// BenchIncremental times the epoch sweep with and without the
// incremental maintainers on the clustered 10⁴-node community graph.
// Both variants advance identical drifting fault schedules and measure
// all three structural metrics every epoch; the full variant
// recomputes each from scratch, the incremental variant repairs the
// maintained state from the epoch delta (k-core subcore repair,
// delta-BFS, per-epoch SLEM). Equivalence is part of the baseline:
// every result must be bit-identical.
func BenchIncremental(ctx context.Context, opts Options, repeats int) (*IncrementalBenchResult, error) {
	opts.fill()
	if repeats < 1 {
		repeats = 1
	}
	g, err := epochSweepGraph(&opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: bench incremental: %w", err)
	}
	srcs, err := epochSweepSources(g, &opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: bench incremental: %w", err)
	}
	ecfg := incremental.EngineConfig{
		Sources:  srcs,
		Spectral: spectral.Config{Tolerance: 1e-8, Seed: opts.Seed, Workers: opts.Workers},
		Workers:  opts.Workers,
	}
	epochs := opts.pick(4, 16)
	fcfg := epochSweepFaultConfig(opts.Seed)

	coreIncEpochs := 0

	fullVariant := func() (string, error) {
		m, err := faults.New(g, fcfg)
		if err != nil {
			return "", err
		}
		h := fnv.New64a()
		for e := 0; e < epochs; e++ {
			if e > 0 {
				m.AdvanceEpoch()
			}
			dec, err := kcore.Decompose(m.View())
			if err != nil {
				return "", err
			}
			er, err := expansion.Measure(ctx, m.View(), expansion.Config{Sources: srcs, Workers: opts.Workers})
			if err != nil {
				return "", err
			}
			comp, nodes := graph.LargestComponentView(m.View())
			sr, err := spectral.SLEMContext(ctx, comp, ecfg.Spectral)
			if err != nil {
				return "", err
			}
			epochFingerprint(h, dec.CorenessValues(), er.Checkpoint().Levels, len(nodes), sr)
		}
		return fmt.Sprintf("%016x", h.Sum64()), nil
	}

	incVariant := func() (string, error) {
		m, err := faults.New(g, fcfg)
		if err != nil {
			return "", err
		}
		en, err := incremental.NewEngine(m, ecfg)
		if err != nil {
			return "", err
		}
		h := fnv.New64a()
		coreIncEpochs = 0
		for e := 0; e < epochs; e++ {
			if e > 0 && en.Advance() {
				coreIncEpochs++
			}
			meas, err := en.Measure(ctx)
			if err != nil {
				return "", err
			}
			epochFingerprint(h, en.Cores(), meas.Expansion.Checkpoint().Levels, meas.ComponentSize, meas.SLEM)
		}
		return fmt.Sprintf("%016x", h.Sum64()), nil
	}

	entry := IncrementalBenchEntry{
		Name: "epoch-sweep", Dataset: "clustered-10k",
		Nodes: g.NumNodes(), Edges: g.NumEdges(),
		Epochs: epochs, Sources: len(srcs), Repeats: repeats,
	}
	fullSec, fullFP, err := timeVariant(fullVariant, repeats)
	if err != nil {
		return nil, fmt.Errorf("experiments: bench incremental full variant: %w", err)
	}
	incSec, incFP, err := timeVariant(incVariant, repeats)
	if err != nil {
		return nil, fmt.Errorf("experiments: bench incremental variant: %w", err)
	}
	entry.FullSeconds, entry.IncrementalSeconds = fullSec, incSec
	if incSec > 0 {
		entry.Speedup = fullSec / incSec
	}
	entry.Identical = fullFP == incFP
	entry.Fingerprint = incFP
	entry.CoreIncrementalEpochs = coreIncEpochs

	return &IncrementalBenchResult{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      opts.Quick,
		Seed:       opts.Seed,
		UnixTime:   time.Now().Unix(),
		Entries:    []IncrementalBenchEntry{entry},
	}, nil
}
