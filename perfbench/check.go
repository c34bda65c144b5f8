package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"sync"

	"github.com/trustnet/trustnet/internal/expansion"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/jobs"
	"github.com/trustnet/trustnet/internal/kcore"
)

// slemBand is the repo's SLEM tolerance band: two μ estimates of one
// graph must agree within it.
const slemBand = 1e-4

var (
	reFingerprint = regexp.MustCompile(`(?m)^fingerprint ([0-9a-f]+)$`)
	reMixed       = regexp.MustCompile(`(?m)^mixing time T\(\S+\) = (\d+) steps`)
	reNotMixed    = regexp.MustCompile(`(?m)^did not mix to eps=\S+ within (\d+) steps`)
	reSLEM        = regexp.MustCompile(`(?m)^slem: mu = (\S+) \(converged=(\w+) after \d+ iterations\)`)
	reSinclair    = regexp.MustCompile(`(?m)^Sinclair bounds at eps=\S+: \S+ <= T <= (\S+)$`)
)

// summary decodes an artifact envelope.
func summary(body []byte) (envelope, error) {
	var e envelope
	if err := json.Unmarshal(body, &e); err != nil {
		return e, fmt.Errorf("artifact envelope: %w", err)
	}
	return e, nil
}

// fingerprintOf extracts the result fingerprint a job printed.
func fingerprintOf(body []byte) (string, error) {
	e, err := summary(body)
	if err != nil {
		return "", err
	}
	m := reFingerprint.FindStringSubmatch(e.Summary)
	if m == nil {
		return "", fmt.Errorf("%s artifact has no fingerprint line", e.Job)
	}
	return m[1], nil
}

// mixingTime parses T(ε) from a mixing artifact; mixed is false when
// the walk did not reach ε within steps.
func mixingTime(body []byte) (t int, mixed bool, err error) {
	e, err := summary(body)
	if err != nil {
		return 0, false, err
	}
	if m := reMixed.FindStringSubmatch(e.Summary); m != nil {
		t, _ = strconv.Atoi(m[1])
		return t, true, nil
	}
	if m := reNotMixed.FindStringSubmatch(e.Summary); m != nil {
		t, _ = strconv.Atoi(m[1])
		return t, false, nil
	}
	return 0, false, fmt.Errorf("mixing artifact has no T(eps) line")
}

// slemOut is the parsed summary of a slem artifact.
type slemOut struct {
	mu        float64
	converged bool
	upper     float64 // Sinclair upper bound on T(ε)
}

func parseSLEM(body []byte) (slemOut, error) {
	var s slemOut
	e, err := summary(body)
	if err != nil {
		return s, err
	}
	m := reSLEM.FindStringSubmatch(e.Summary)
	b := reSinclair.FindStringSubmatch(e.Summary)
	if m == nil || b == nil {
		return s, fmt.Errorf("slem artifact lacks the mu or Sinclair line")
	}
	s.mu, _ = strconv.ParseFloat(m[1], 64)
	s.converged = m[2] == "true"
	s.upper, _ = strconv.ParseFloat(b[1], 64)
	return s, nil
}

// reference holds in-process results the daemon's outputs must match,
// computed (untimed) from the same TNG2 content.
type reference struct {
	g        graph.View
	coreness string // kcore fingerprint; coreness does not depend on the seed
}

// newReference decomposes g once for the coreness check.
func newReference(g graph.View) (*reference, error) {
	dec, err := kcore.Decompose(g)
	if err != nil {
		return nil, err
	}
	return &reference{g: g, coreness: jobs.CorenessFingerprint(dec)}, nil
}

// expansionFingerprint computes the fingerprint the daemon's expansion
// job must report for (cores, seed).
func (ref *reference) expansionFingerprint(ctx context.Context, cores int, seed int64) (string, error) {
	src, err := expansion.SampledSources(ref.g, cores, seed)
	if err != nil {
		return "", err
	}
	res, err := expansion.Measure(ctx, ref.g, expansion.Config{Sources: src, Workers: 1})
	if err != nil {
		return "", err
	}
	return jobs.ExpansionFingerprint(res), nil
}

// checkOutputs verifies every successful op's artifact: coreness and
// expansion fingerprints against the reference, μ agreement and
// convergence across the run's slem requests, and each mixing T(ε)
// against the Sinclair upper bound (or, when the walk did not mix, that
// the bound legitimately exceeds the walk length). Expansion references
// are computed on two goroutines.
func checkOutputs(ctx context.Context, ref *reference, ops []*op) {
	var slems []slemOut
	for _, o := range ops {
		if o.err != nil || o.kind != "slem" {
			continue
		}
		s, err := parseSLEM(o.res.body)
		switch {
		case err != nil:
			o.fail("%v", err)
		case !s.converged:
			o.fail("slem %s did not converge", o.res.status.ID)
		case s.mu <= 0 || s.mu >= 1:
			o.fail("slem %s: mu %v outside (0,1)", o.res.status.ID, s.mu)
		default:
			slems = append(slems, s)
		}
	}
	var mus, uppers []float64
	for _, s := range slems {
		mus = append(mus, s.mu)
		uppers = append(uppers, s.upper)
	}
	muMed, upper := median(mus), median(uppers)
	for _, o := range ops {
		if o.err != nil || o.kind != "slem" {
			continue
		}
		if s, _ := parseSLEM(o.res.body); math.Abs(s.mu-muMed) > slemBand {
			o.fail("slem %s: mu %v outside the %g band around the run's median %v", o.res.status.ID, s.mu, slemBand, muMed)
		}
	}

	var expOps []*op
	for _, o := range ops {
		if o.err != nil {
			continue
		}
		switch o.req.Job {
		case "coreness":
			if fp, err := fingerprintOf(o.res.body); err != nil {
				o.fail("%v", err)
			} else if fp != ref.coreness {
				o.fail("coreness %s fingerprint %s, in-process %s", o.res.status.ID, fp, ref.coreness)
			}
		case "expansion":
			expOps = append(expOps, o)
		case "mixing":
			t, mixed, err := mixingTime(o.res.body)
			switch {
			case err != nil:
				o.fail("%v", err)
			case len(slems) == 0:
				o.fail("mixing %s: no slem result to bound T(eps)", o.res.status.ID)
			case mixed && float64(t) > upper:
				o.fail("mixing %s: T(eps) = %d above the Sinclair bound %.1f", o.res.status.ID, t, upper)
			case !mixed && upper <= float64(t):
				o.fail("mixing %s: did not mix in %d steps though the Sinclair bound is %.1f", o.res.status.ID, t, upper)
			}
		}
	}

	// Replays of one primed artifact share its reference, so each
	// distinct (cores, seed) is computed once.
	type key struct {
		cores int
		seed  int64
	}
	want := make(map[key]string)
	var mu sync.Mutex
	var keys []key
	for _, o := range expOps {
		k := key{o.req.Config.ExpansionSources, o.req.Config.Seed}
		if _, ok := want[k]; !ok {
			want[k] = ""
			keys = append(keys, k)
		}
	}
	errs := make(map[key]error)
	var wg sync.WaitGroup
	ch := make(chan key)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range ch {
				fp, err := ref.expansionFingerprint(ctx, k.cores, k.seed)
				mu.Lock()
				want[k], errs[k] = fp, err
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		ch <- k
	}
	close(ch)
	wg.Wait()
	for _, o := range expOps {
		k := key{o.req.Config.ExpansionSources, o.req.Config.Seed}
		fp, err := fingerprintOf(o.res.body)
		switch {
		case errs[k] != nil:
			o.fail("in-process expansion: %v", errs[k])
		case err != nil:
			o.fail("%v", err)
		case fp != want[k]:
			o.fail("expansion %s fingerprint %s, in-process %s", o.res.status.ID, fp, want[k])
		}
	}
}
