package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/trustnet/trustnet/internal/expansion"
	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/jobs"
	"github.com/trustnet/trustnet/internal/kcore"
	"github.com/trustnet/trustnet/internal/resilience"
	"github.com/trustnet/trustnet/internal/spectral"
	"github.com/trustnet/trustnet/internal/walk"
)

// edgeStream builds the streaming generator the daemon's generate route
// uses for g (same model, knobs and seed), so the in-process file is the
// daemon's graph byte for byte.
func edgeStream(g genRequest) (gen.EdgeStream, error) {
	switch g.Model {
	case "ba":
		return gen.StreamBA(g.Nodes, g.Attach, g.Seed)
	case "clustered-pa":
		return gen.StreamClusteredPA(gen.ClusteredPAConfig{
			Communities: g.Communities, CommunitySize: g.CommunitySize,
			Attach: g.Attach, Bridges: g.Bridges, Seed: g.Seed,
		})
	}
	return nil, fmt.Errorf("no in-process generator for model %q", g.Model)
}

// writeGraph streams g to path.
func writeGraph(g genRequest, path string) error {
	es, err := edgeStream(g)
	if err != nil {
		return err
	}
	_, err = gen.StreamToFile(es, path)
	return err
}

// timeIt runs f reps times under spans named name and returns the
// per-call durations in ms.
func timeIt(rec *recorder, name string, reps int, f func() error) ([]float64, error) {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		sp := rec.Start(name, nil)
		start := time.Now()
		err := f()
		d := time.Since(start)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, ms(d))
	}
	return out, nil
}

// cachedJob is a jobs.Job standing for an artifact already in a Store:
// it carries the artifact's name and config fingerprint, so a Runner
// resolves it to that cache entry. Run is reached only on a miss.
type cachedJob struct{ name, fp string }

func (j cachedJob) Name() string        { return j.name }
func (j cachedJob) Fingerprint() string { return j.fp }
func (j cachedJob) Run(context.Context, jobs.Env) (*jobs.Artifact, error) {
	return nil, fmt.Errorf("%s: cache miss on a primed key", j.name)
}

// layerProbes times each layer's public functions from outside, on the
// workload's graph file and the configs of its first round, and returns
// per-layer metrics in their units. dir is scratch space on the file
// system of the daemon's directories; diskDir is on the host disk, so
// the write probe sees the fsync cost a tmpfs hides. The in-process
// mixing fingerprint is checked against the daemon's round-0 artifact
// (mixBody).
func layerProbes(ctx context.Context, rec *recorder, w workload, dir, diskDir string, mixBody []byte, expSeed int64, m map[string]float64) error {
	gpath := filepath.Join(dir, "probe.tng2")
	t, err := timeIt(rec, "gen.StreamToFile", 3, func() error { return writeGraph(w.graph, gpath) })
	if err != nil {
		return err
	}
	m["gen.stream_s"] = median(t) / 1000

	t, err = timeIt(rec, "graph.OpenMapped", 5, func() error {
		g, err := graph.OpenMapped(gpath)
		if err != nil {
			return err
		}
		return g.Close()
	})
	if err != nil {
		return err
	}
	m["graph.open_ms"] = median(t)

	g, err := graph.OpenMapped(gpath)
	if err != nil {
		return err
	}
	defer g.Close()
	var gfp string
	t, err = timeIt(rec, "graph.Fingerprint", 3, func() error { gfp = graph.Fingerprint(g); return nil })
	if err != nil {
		return err
	}
	m["graph.fingerprint_ms"] = median(t)

	var mr *walk.MixingResult
	t, err = timeIt(rec, "walk.MeasureMixing", 1, func() (err error) {
		mr, err = walk.MeasureMixing(ctx, g, walk.MixingConfig{MaxSteps: 200, Sources: w.mixSources, Seed: coldSeed(0)})
		return err
	})
	if err != nil {
		return err
	}
	m["walk.mixing_s"] = t[0] / 1000
	if want, err := fingerprintOf(mixBody); err != nil || want != jobs.MixingFingerprint(mr) {
		return fmt.Errorf("in-process mixing fingerprint %s differs from the daemon's round-0 artifact (%v)", jobs.MixingFingerprint(mr), err)
	}

	var sr *spectral.Result
	t, err = timeIt(rec, "spectral.SLEMContext", 1, func() (err error) {
		sr, err = spectral.SLEMContext(ctx, g, spectral.Config{Seed: coldSeed(0)})
		return err
	})
	if err != nil {
		return err
	}
	m["spectral.slem_s"] = t[0] / 1000
	m["spectral.matvec_ms"] = t[0] / float64(sr.Iterations)

	t, err = timeIt(rec, "expansion.Measure", 1, func() error {
		src, err := expansion.SampledSources(g, w.expCores, expSeed)
		if err != nil {
			return err
		}
		_, err = expansion.Measure(ctx, g, expansion.Config{Sources: src})
		return err
	})
	if err != nil {
		return err
	}
	m["expansion.measure_s"] = t[0] / 1000

	t, err = timeIt(rec, "kcore.Decompose", 9, func() error { _, err := kcore.Decompose(g); return err })
	if err != nil {
		return err
	}
	m["kcore.decompose_ms"] = median(t)

	if err := jobsProbes(ctx, rec, dir, gfp, mixBody, m); err != nil {
		return err
	}
	return writeProbe(rec, diskDir, mixBody, m)
}

// jobsProbes times the artifact store and a cache-hit Runner.Run on the
// round-0 mixing artifact.
func jobsProbes(ctx context.Context, rec *recorder, dir, gfp string, mixBody []byte, m map[string]float64) error {
	var a jobs.Artifact
	if err := json.Unmarshal(mixBody, &a); err != nil {
		return fmt.Errorf("decode mixing artifact: %w", err)
	}
	if a.GraphFingerprint != gfp {
		return fmt.Errorf("mixing artifact graph %s, in-process graph %s", a.GraphFingerprint, gfp)
	}
	store := jobs.NewStore(filepath.Join(dir, "probe-cache"))
	t, err := timeIt(rec, "jobs.Store.Save", 20, func() error { b := a; return store.Save(&b) })
	if err != nil {
		return err
	}
	m["jobs.store_save_ms"] = median(t)
	t, err = timeIt(rec, "jobs.Store.Load", 20, func() error {
		if store.Load(a.Job, a.GraphFingerprint, a.ConfigFingerprint) == nil {
			return fmt.Errorf("saved artifact did not load")
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["jobs.store_load_ms"] = median(t)

	i := 0
	t, err = timeIt(rec, "jobs.Runner.Run", 50, func() error {
		i++
		r := &jobs.Runner{Cache: store, Env: jobs.Env{GraphFingerprint: gfp}, OutDir: filepath.Join(dir, "probe-out", fmt.Sprint(i))}
		cached, err := r.Run(ctx, cachedJob{a.Job, a.ConfigFingerprint})
		if err == nil && !cached {
			err = fmt.Errorf("primed key was not replayed")
		}
		return err
	})
	if err != nil {
		return err
	}
	m["jobs.runner_replay_ms"] = median(t)
	return nil
}

// writeProbe times resilience.WriteFileAtomic (temp file, fsync, rename)
// in dir with the mixing artifact's largest file: the write every replay
// of that artifact makes.
func writeProbe(rec *recorder, dir string, mixBody []byte, m map[string]float64) error {
	e, err := summary(mixBody)
	if err != nil {
		return err
	}
	var data []byte
	for _, f := range e.Files {
		if len(f.Data) > len(data) {
			data = f.Data
		}
	}
	wdir := filepath.Join(dir, "probe-write")
	if err := os.MkdirAll(wdir, 0o755); err != nil {
		return err
	}
	t, err := timeIt(rec, "resilience.WriteFileAtomic", 1000, func() error {
		return resilience.WriteFileAtomic(filepath.Join(wdir, "artifact.csv"), data, 0o644)
	})
	if err != nil {
		return err
	}
	m["resilience.write_atomic_p50_ms"] = quantile(t, 0.5)
	m["resilience.write_atomic_p99_ms"] = quantile(t, 0.99)
	return nil
}
