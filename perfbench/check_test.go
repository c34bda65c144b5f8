package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/trustnetd"
)

// tiny is a workload small enough for a unit test that still takes the
// kernel paths.
var tiny = workload{
	name:       "tiny",
	graph:      genRequest{Model: "ba", Nodes: 3000, Attach: 4, Seed: 1},
	mixSources: 4,
	expCores:   64,
	rounds:     2,
	replayReqs: 40,
}

// harness runs tiny's cold rounds against an in-process daemon and
// returns the client, the daemon's cache directory, the cold ops and the
// reference for the output checks.
func harness(t *testing.T) (*client, string, []*op, *reference) {
	t.Helper()
	dir := t.TempDir()
	srv, err := trustnetd.New(trustnetd.Config{
		DataDir:  filepath.Join(dir, "data"),
		CacheDir: filepath.Join(dir, "cache"),
		OutDir:   dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	c := newClient(ts.URL, nil)
	t.Cleanup(c.close)
	ctx := context.Background()
	info, err := c.generate(ctx, "g", tiny.graph)
	if err != nil {
		t.Fatal(err)
	}
	refPath := filepath.Join(dir, "ref.tng2")
	if err := writeGraph(tiny.graph, refPath); err != nil {
		t.Fatal(err)
	}
	g, err := graph.OpenMapped(refPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	if fp := graph.Fingerprint(g); fp != info.Fingerprint {
		t.Fatalf("in-process graph %s, daemon graph %s", fp, info.Fingerprint)
	}
	ref, err := newReference(g)
	if err != nil {
		t.Fatal(err)
	}
	var cold []*op
	for r := 0; r < tiny.rounds; r++ {
		cold = append(cold, computeRound(ctx, c, tiny, "g", 7, r)...)
	}
	return c, filepath.Join(dir, "cache"), cold, ref
}

func TestUntamperedRunHasNoFailures(t *testing.T) {
	c, _, cold, ref := harness(t)
	ctx := context.Background()
	prime := primes(cold)
	if len(prime) != 4 {
		t.Fatalf("primed %d of 4 jobs", len(prime))
	}
	rops := replayOps(tiny, "g", 7, cold, prime)
	runReplay(ctx, c, nil, rops)
	checkReplays(rops, cold)
	all := append(cold, rops...)
	checkOutputs(ctx, ref, all)
	for _, o := range all {
		if o.err != nil {
			t.Errorf("%s: %v", o.kind, o.err)
		}
	}
}

// A cache entry tampered on disk must not be replayed silently: the
// daemon's store rejects it and recomputes, and the benchmark counts the
// replay that was answered by a recompute as a failed operation.
func TestTamperedArtifactCountsAsFailed(t *testing.T) {
	c, cacheDir, cold, ref := harness(t)
	ctx := context.Background()
	prime := primes(cold)
	entries, err := filepath.Glob(filepath.Join(cacheDir, "coreness-*.json"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no coreness cache entries (%v)", err)
	}
	for _, path := range entries {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Replace(string(data), "degeneracy", "degeneracY", 1)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rops := replayOps(tiny, "g", 7, cold, prime)
	runReplay(ctx, c, nil, rops)
	checkReplays(rops, cold)
	checkOutputs(ctx, ref, append(cold, rops...))
	if failed(rops) == 0 {
		t.Fatal("replay of a tampered cache entry not counted as failed")
	}
	for _, o := range rops {
		if o.err != nil && o.kind != "replay-coreness" {
			t.Errorf("unexpected failure of %s: %v", o.kind, o.err)
		}
	}
}

// Replayed bytes that differ from the primed artifact count as a failed
// operation.
func TestTamperedReplayBytesCountAsFailed(t *testing.T) {
	c, _, cold, _ := harness(t)
	prime := primes(cold)
	rops := replayOps(tiny, "g", 7, cold, prime)
	runReplay(context.Background(), c, nil, rops)
	victim := rops[0]
	victim.res.body = append([]byte(nil), victim.res.body...)
	victim.res.body[len(victim.res.body)/2] ^= 1
	checkReplays(rops, cold)
	if victim.err == nil || failed(rops) != 1 {
		t.Fatalf("failed ops = %d (victim err %v), want only the tampered replay", failed(rops), victim.err)
	}
}

// An artifact whose printed fingerprint disagrees with the in-process
// result counts as a failed operation.
func TestTamperedFingerprintCountsAsFailed(t *testing.T) {
	_, _, cold, ref := harness(t)
	var victim *op
	for _, o := range cold {
		if o.kind == "expansion" {
			victim = o
			break
		}
	}
	var e map[string]any
	if err := json.Unmarshal(victim.res.body, &e); err != nil {
		t.Fatal(err)
	}
	fp, err := fingerprintOf(victim.res.body)
	if err != nil {
		t.Fatal(err)
	}
	e["summary"] = strings.Replace(e["summary"].(string), fp, strings.Repeat("0", len(fp)), 1)
	if victim.res.body, err = json.Marshal(e); err != nil {
		t.Fatal(err)
	}
	ref.coreness = strings.Repeat("f", 16)
	checkOutputs(context.Background(), ref, cold)
	if victim.err == nil {
		t.Error("tampered expansion fingerprint not counted as failed")
	}
	wantFailed := 1 + tiny.rounds*corenessPerRound
	if got := failed(cold); got != wantFailed {
		t.Errorf("failed ops = %d, want %d (the expansion and every coreness)", got, wantFailed)
	}
}

// The metric names the benchmark prints are the ones BENCHMARK.json
// declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present")
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: %d metrics in code, %d in BENCHMARK.json", what, len(defs), len(got))
		}
		for i, d := range defs {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s[%d]: code %s/%s, BENCHMARK.json %s/%s", what, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in code, %d in BENCHMARK.json", len(workloads), len(spec.Workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: code %s, BENCHMARK.json %s", i, w.name, spec.Workloads[i].Name)
		}
	}
}
