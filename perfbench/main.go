// Command perfbench is trustnet's end-to-end benchmark. It starts
// trustnetd as its own process, drives it over HTTP as a single client
// process (at most two request goroutines, keep-alive connections),
// checks every answer, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload fast-mixer --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 repeats the run
// with spans recorded around every HTTP call and times each layer's
// public functions in-process, reporting the per-layer metrics. See
// README.md in this directory for the workloads and the metric map.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/kernels"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, as a trustnetd caller
// sees them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mixing_s", "s"},
	{"slem_s", "s"},
	{"expansion_s", "s"},
	{"coreness_ms", "ms"},
	{"replay_p50_ms", "ms"},
	{"replay_p99_ms", "ms"},
	{"replay_rps", "1/s"},
	{"write_p50_ms", "ms"},
	{"peak_rss_mib", "MiB"},
}

// perLayer are the metrics of a traced run, one group per layer.
var perLayer = []metricDef{
	{"gen.stream_s", "s"},
	{"graph.open_ms", "ms"},
	{"graph.fingerprint_ms", "ms"},
	{"trustnetd.generate_s", "s"},
	{"walk.mixing_s", "s"},
	{"walk.steps", "count"},
	{"walk.useful_step_ratio", "ratio"},
	{"kernels.block_mib", "MiB"},
	{"kernels.bytes_per_step", "B"},
	{"spectral.slem_s", "s"},
	{"spectral.matvecs", "count"},
	{"spectral.matvec_ms", "ms"},
	{"spectral.bytes_per_matvec", "B"},
	{"expansion.measure_s", "s"},
	{"expansion.bfs_batches", "count"},
	{"expansion.pool_hit_ratio", "ratio"},
	{"kcore.decompose_ms", "ms"},
	{"jobs.store_load_ms", "ms"},
	{"jobs.store_save_ms", "ms"},
	{"jobs.runner_replay_ms", "ms"},
	{"jobs.cache_hit_ratio", "ratio"},
	{"jobs.executed", "count"},
	{"jobs.replay_bytes_written", "B"},
	{"jobs.replay_files_written", "count"},
	{"resilience.write_atomic_p50_ms", "ms"},
	{"resilience.write_atomic_p99_ms", "ms"},
	{"resilience.attempts_per_job", "ratio"},
	{"trustnetd.enqueue_p50_ms", "ms"},
	{"trustnetd.enqueue_p99_ms", "ms"},
	{"trustnetd.wait_p50_ms", "ms"},
	{"trustnetd.wait_p99_ms", "ms"},
	{"trustnetd.artifact_p50_ms", "ms"},
	{"trustnetd.artifact_p99_ms", "ms"},
	{"trustnetd.queue_wait_p50_ms", "ms"},
	{"trustnetd.queue_wait_p99_ms", "ms"},
	{"trustnetd.jobs_retained", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.spans", "count"},
	{"trace.client_self_s", "s"},
	{"trace.trustnetd_self_s", "s"},
}

// setupReps is how many times a run sets up a daemon; setup_s is the
// median, and the last daemon serves the workload.
const setupReps = 5

func main() {
	var (
		name    = flag.String("workload", "", "workload name: fast-mixer, slow-mixer or replay")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", nominalSeconds, "run length the work is sized for")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		bin     = flag.String("daemon", "", "trustnetd binary")
		work    = flag.String("work", ".bench_build", "scratch directory on the host disk (probes, traces)")
		shm     = flag.String("shm", ".bench_build", "directory for the daemons' -data and -out (a tmpfs where available)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *bin, *work, *shm); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// provenance records what a result was measured on.
type provenance struct {
	Workload           string            `json:"workload"`
	Seed               int64             `json:"seed"`
	Seconds            int               `json:"seconds"`
	Trace              bool              `json:"trace"`
	NumCPU             int               `json:"num_cpu"`
	GOMAXPROCS         int               `json:"gomaxprocs"`
	GoVersion          string            `json:"go_version"`
	L2PerCore          string            `json:"l2_per_core"`
	DaemonFS           string            `json:"daemon_fs"`
	StealPct           float64           `json:"steal_pct"`
	GraphFingerprint   string            `json:"graph_fingerprint"`
	Nodes              int               `json:"nodes"`
	Edges              int64             `json:"edges"`
	ConfigFingerprints map[string]string `json:"config_fingerprints"`
	Rounds             int               `json:"rounds"`
	ReplaySamples      int               `json:"replay_samples"`
	ReplayP99Blocks    int               `json:"replay_p99_blocks"`
	Writes             int               `json:"writes"`
}

func run(name string, seed int64, seconds int, trace bool, bin, work, shm string) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("daemon binary: %w", err)
	}
	w = w.scaled(seconds)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()

	tag := fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid())
	runDir, err := filepath.Abs(filepath.Join(shm, "run-"+tag))
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	diskDir, err := filepath.Abs(filepath.Join(work, "run-"+tag))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(diskDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(diskDir)
	rec := newRecorder(trace)
	prov := provenance{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		L2PerCore: l2Size(), Rounds: w.rounds, ConfigFingerprints: map[string]string{},
	}
	m := make(map[string]float64)
	var ops []*op

	d, info, setups, gens, err := setup(ctx, bin, runDir, w.graph, rec)
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	for range setups {
		ops = append(ops, &op{kind: "setup"})
	}
	m["setup_s"] = median(setups)
	m["trustnetd.generate_s"] = median(gens)
	prov.DaemonFS = fsType(d.dir)
	prov.GraphFingerprint, prov.Nodes, prov.Edges = info.Fingerprint, info.Nodes, info.Edges

	// The reference graph: the same generator in-process, untimed.
	refPath := filepath.Join(runDir, "ref.tng2")
	if err := writeGraph(w.graph, refPath); err != nil {
		return err
	}
	g, err := graph.OpenMapped(refPath)
	if err != nil {
		return err
	}
	defer g.Close()
	fpOp := &op{kind: "graph-fingerprint"}
	if fp := graph.Fingerprint(g); fp != info.Fingerprint {
		fpOp.fail("daemon graph fingerprint %s, in-process %s", info.Fingerprint, fp)
	}
	ops = append(ops, fpOp)

	base := "http://" + d.addr
	plain := newClient(base, nil)
	defer plain.close()
	c := plain
	var traced *client
	if trace {
		traced = newClient(base, rec)
		defer traced.close()
		c = traced
	}
	c0, err := c.counters(ctx)
	if err != nil {
		return err
	}
	// While requests are timed the client runs on one P, so its own work
	// never holds both CPUs the daemon is measured on.
	procs := runtime.GOMAXPROCS(1)
	cpu0 := cpuTicks()
	cold, rops, wall, err := drive(ctx, c, plain, traced, w, "g", seed)
	prov.StealPct = stealPct(cpu0, cpuTicks())
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return err
	}
	for _, p := range primes(cold) {
		prov.ConfigFingerprints[cold[p].kind] = cold[p].res.status.ConfigFingerprint
	}
	c1, err := c.counters(ctx)
	if err != nil {
		return err
	}
	rss, err := d.peakRSSMiB()
	if err != nil {
		return err
	}
	m["peak_rss_mib"] = rss

	writes := 0
	for _, o := range rops {
		if o.kind == "write" {
			writes++
		}
	}
	execOp := &op{kind: "executed-count"}
	if got := c1["jobs.run.executed"] - c0["jobs.run.executed"]; got != int64(len(cold)+writes) {
		execOp.fail("jobs.run.executed rose by %d, want %d (%d cold requests and %d writes; replays must not execute)", got, len(cold)+writes, len(cold), writes)
	}
	if trace {
		b, f, err := bytesWritten(filepath.Join(d.dir, "out", "jobs"), rops)
		if err != nil {
			return err
		}
		m["jobs.replay_bytes_written"], m["jobs.replay_files_written"] = b, f
	}
	if err := d.stop(time.Minute); err != nil {
		return err
	}
	d = nil

	// Output checks (untimed).
	ref, err := newReference(g)
	if err != nil {
		return err
	}
	checkReplays(rops, cold)
	all := append(append(cold, rops...), execOp)
	checkOutputs(ctx, ref, all)
	ops = append(ops, all...)

	// End-to-end figures from the untraced timings.
	coldTimes := func(job string) []float64 {
		var xs []float64
		for _, o := range cold {
			if o.kind == job && o.err == nil {
				xs = append(xs, secs(o.res.elapsed))
			}
		}
		return xs
	}
	m["mixing_s"] = median(coldTimes("mixing"))
	m["slem_s"] = median(coldTimes("slem"))
	m["expansion_s"] = median(coldTimes("expansion"))
	m["coreness_ms"] = median(coldTimes("coreness")) * 1000
	var hits, hitsTraced, hitsPlain, writeMs, queueWait []float64
	for _, o := range rops {
		if o.err != nil {
			continue
		}
		if o.kind == "write" {
			writeMs = append(writeMs, ms(o.res.elapsed))
			continue
		}
		t := ms(o.res.total)
		hits = append(hits, t)
		if o.traced {
			hitsTraced = append(hitsTraced, t)
		} else {
			hitsPlain = append(hitsPlain, t)
		}
		queueWait = append(queueWait, ms(o.res.elapsed)-o.res.status.WallSeconds*1000)
	}
	m["replay_p50_ms"] = median(hits)
	m["replay_p99_ms"], prov.ReplayP99Blocks = blockP99(hits)
	m["replay_rps"] = float64(len(hits)) / wall.Seconds()
	m["write_p50_ms"] = median(writeMs)
	prov.ReplaySamples, prov.Writes = len(hits), len(writeMs)

	if trace {
		m["trustnetd.queue_wait_p50_ms"] = quantile(queueWait, 0.5)
		m["trustnetd.queue_wait_p99_ms"] = quantile(queueWait, 0.99)
		m["trace.overhead_ratio"] = median(hitsTraced) / median(hitsPlain)
		counterMetrics(m, info, cold, c0, c1)
		if err := layerProbes(ctx, rec, w, runDir, diskDir, cold[primes(cold)[0]].res.body, derive(seed, streamRound, 0), m); err != nil {
			return err
		}
		path := filepath.Join(work, "trace", fmt.Sprintf("%s-seed%d.json", w.name, seed))
		if err := spanMetrics(rec, path, m); err != nil {
			return err
		}
	}

	defs := endToEnd
	if trace {
		defs = perLayer
	}
	return report(prov, ops, m, defs)
}

// spanMetrics derives the per-route latencies and the self-time fold
// from the recorded spans, writes the spans to path and prints the fold.
func spanMetrics(rec *recorder, path string, m map[string]float64) error {
	spans := rec.records()
	for _, route := range []string{"enqueue", "wait", "artifact"} {
		xs := durations(spans, "trustnetd."+route, "replay.request")
		m["trustnetd."+route+"_p50_ms"] = quantile(xs, 0.5)
		m["trustnetd."+route+"_p99_ms"] = quantile(xs, 0.99)
	}
	fold := foldSelf(spans)
	for _, r := range fold {
		switch r.Layer {
		case "compute", "replay":
			m["trace.client_self_s"] += r.Self
		case "trustnetd":
			m["trace.trustnetd_self_s"] += r.Self
		}
	}
	m["trace.spans"] = float64(len(spans))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := writeTrace(path, spans, fold); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "self time by layer (%d spans, written to %s):\n", len(spans), path)
	printFold(os.Stderr, fold)
	return nil
}

// setup starts setupReps daemons one after another, each in a fresh
// directory under runDir, and times each from exec through /healthz to
// the graph generated. All but the last are stopped; the last serves
// the workload. It returns the set-up times and, within them, the
// generate route's times.
func setup(ctx context.Context, bin, runDir string, g genRequest, rec *recorder) (d *daemon, info graphInfo, setups, gens []float64, err error) {
	for k := 0; k < setupReps; k++ {
		dir := filepath.Join(runDir, fmt.Sprintf("daemon-%d", k))
		start := time.Now()
		if d, err = startDaemon(ctx, bin, dir); err != nil {
			return nil, info, nil, nil, err
		}
		c := newClient("http://"+d.addr, rec)
		err = c.healthz(ctx)
		genStart := time.Now()
		if err == nil {
			info, err = c.generate(ctx, "g", g)
		}
		end := time.Now()
		c.close()
		if err != nil {
			d.kill()
			return nil, info, nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, end.Sub(start).Seconds())
		gens = append(gens, end.Sub(genStart).Seconds())
		if k < setupReps-1 {
			if err := d.stop(time.Minute); err != nil {
				return nil, info, nil, nil, err
			}
			_ = os.RemoveAll(dir)
		}
	}
	return d, info, setups, gens, nil
}

// counterMetrics derives the per-layer counts and ratios from the
// daemon's counter snapshots c0 and c1, taken before and after the
// workload's requests.
func counterMetrics(m map[string]float64, info graphInfo, cold []*op, c0, c1 map[string]int64) {
	d := func(a, b map[string]int64, k string) float64 { return float64(b[k] - a[k]) }
	n, arcs := float64(info.Nodes), 2*float64(info.Edges)
	block := float64(kernels.DefaultBlockWidth)

	steps := d(c0, c1, "walk.mixing.steps")
	useful := 0.0
	for _, o := range cold {
		if o.kind != "mixing" || o.err != nil {
			continue
		}
		t, _, _ := mixingTime(o.res.body) // t is max_steps when the walk did not mix
		useful += float64(o.req.Config.Sources * t)
	}
	m["walk.steps"] = steps
	m["walk.useful_step_ratio"] = useful / steps
	// Computed, not measured: two n×block float64 buffers, and per block
	// step one pass over offsets (8 B/node) and adjacency (4 B/arc) plus
	// a read and a write of the block.
	m["kernels.block_mib"] = 2 * block * 8 * n / (1 << 20)
	m["kernels.bytes_per_step"] = 8*(n+1) + 4*arcs + 2*block*8*n
	m["spectral.matvecs"] = d(c0, c1, "spectral.slem.iterations")
	// Computed: offsets and adjacency once, x and the degree vector read,
	// y written.
	m["spectral.bytes_per_matvec"] = 8*(n+1) + 4*arcs + 3*8*n

	m["expansion.bfs_batches"] = d(c0, c1, "expansion.bfs.batches")
	ph, pm := d(c0, c1, "expansion.pool.hits"), d(c0, c1, "expansion.pool.misses")
	m["expansion.pool_hit_ratio"] = ph / (ph + pm)
	hits, misses := d(c0, c1, "jobs.cache.hits"), d(c0, c1, "jobs.cache.misses")
	m["jobs.cache_hit_ratio"] = hits / (hits + misses)
	m["jobs.executed"] = d(c0, c1, "jobs.run.executed")
	jobsDone := d(c0, c1, "trustnetd.jobs.completed") + d(c0, c1, "trustnetd.jobs.failed")
	m["resilience.attempts_per_job"] = d(c0, c1, "resilience.retry.attempts") / jobsDone
	m["trustnetd.jobs_retained"] = float64(c1["trustnetd.jobs.enqueued"])
}

// bytesWritten returns the mean bytes and files a cache-hit replay
// left under the daemon's per-job output directory.
func bytesWritten(jobsDir string, rops []*op) (float64, float64, error) {
	var bytes, files, n float64
	for _, o := range rops {
		if o.err != nil || o.kind == "write" {
			continue
		}
		n++
		err := filepath.WalkDir(filepath.Join(jobsDir, o.res.status.ID), func(_ string, e fs.DirEntry, err error) error {
			if err != nil {
				if errors.Is(err, fs.ErrNotExist) {
					return nil // a replayed artifact with no files (slem)
				}
				return err
			}
			if e.Type().IsRegular() {
				fi, err := e.Info()
				if err != nil {
					return err
				}
				bytes += float64(fi.Size())
				files++
			}
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
	}
	return bytes / n, files / n, nil
}

// report prints the provenance line and then the result line.
func report(prov provenance, ops []*op, m map[string]float64, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Attempted: len(ops), Failed: failed(ops), Metrics: map[string]value{}}
	out.Correct = out.Failed == 0
	for _, o := range ops {
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "FAILED %s %s: %v\n", o.kind, o.res.status.ID, o.err)
		}
	}
	for _, def := range defs {
		v, ok := m[def.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", def.name)
		}
		out.Metrics[def.name] = value{v, def.unit}
	}
	p, err := json.Marshal(map[string]provenance{"provenance": prov})
	if err != nil {
		return err
	}
	r, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(p))
	fmt.Println(string(r))
	return nil
}
