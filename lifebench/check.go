package main

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// The checks below recompute what the program should have returned by
// brute force over every point, sharing no code with it: the Epanechnikov
// weight (1-(d/h)^2)+ is written out here, distances are plain loops, and
// nothing is pruned or indexed.

// epanechnikov is the unnormalised kernel weight for squared distance d2.
func epanechnikov(d2, h float64) float64 {
	u2 := d2 / (h * h)
	if u2 >= 1 {
		return 0
	}
	return 1 - u2
}

// nwBrute is the Nadaraya–Watson estimate at q over every anchor: the
// kernel-weighted mean of the anchor values. ok is false when q has no
// anchor inside the bandwidth.
func nwBrute(anchors [][]float64, values []float64, h float64, q []float64) (v float64, ok bool) {
	var num, den float64
	for i, a := range anchors {
		w := epanechnikov(dist2(a, q), h)
		num += w * values[i]
		den += w
	}
	if den == 0 {
		return 0, false
	}
	return num / den, true
}

// nwTol is the absolute tolerance of a served NW score against nwBrute:
// the two sum the same terms in different orders (and the server's
// distances may run through SIMD), so they agree to rounding only.
const nwTol = 1e-9

// checkNW compares served scores at queries against brute-force NW over
// the anchors.
func checkNW(anchors [][]float64, values []float64, h float64, queries [][]float64, served []float64) error {
	if len(served) != len(queries) {
		return fmt.Errorf("nw: %d scores for %d queries", len(served), len(queries))
	}
	for i, q := range queries {
		want, ok := nwBrute(anchors, values, h, q)
		if !ok {
			return fmt.Errorf("nw: query %d has no anchor in range, so it should not have been served", i)
		}
		if d := math.Abs(served[i] - want); !(d <= nwTol) {
			return fmt.Errorf("nw: query %d served %.17g, brute force %.17g (diff %.3g > %g)", i, served[i], want, d, nwTol)
		}
	}
	return nil
}

// fitResidualTol is the solver's relative residual tolerance under the
// default options (graphssl's 1e-10).
const fitResidualTol = 1e-10

// checkFit checks a hard-criterion fit of d without trusting the solver:
//
//   - every labeled score equals its response exactly;
//   - every score lies in [min y, max y] (the maximum principle of the
//     harmonic solution);
//   - at `samples` random unlabeled nodes the score equals the weighted
//     mean of all other scores, Σ_j w_ij f_j / Σ_j w_ij, summed by brute
//     force over every point.
//
// The last identity is row i of (D22 − W22) f_U = W21 y divided by d_i,
// so it holds up to the solver's residual: |error_i| ≤ ‖r‖₂ / d_i with
// ‖r‖₂ ≤ tol·‖b‖₂ and ‖b‖₂ ≤ √m · max d · max|y|. The tolerance uses
// that bound with a factor 10 for the gap between the solver's recursive
// residual and the true one, and 1.5 × the largest sampled degree for
// max d.
func checkFit(d dataset, scores []float64, samples int, rng *rand.Rand) error {
	n := len(d.x)
	if len(scores) != n {
		return fmt.Errorf("fit: %d scores for %d points", len(scores), n)
	}
	isLab := make([]bool, n)
	ymin, ymax, yabs := math.Inf(1), math.Inf(-1), 0.0
	for k, l := range d.labeled {
		isLab[l] = true
		if scores[l] != d.y[k] {
			return fmt.Errorf("fit: labeled point %d scored %.17g, response %.17g", l, scores[l], d.y[k])
		}
		ymin, ymax = math.Min(ymin, d.y[k]), math.Max(ymax, d.y[k])
		yabs = math.Max(yabs, math.Abs(d.y[k]))
	}
	for i, s := range scores {
		if !(s >= ymin && s <= ymax) {
			return fmt.Errorf("fit: point %d scored %.17g outside [%g, %g]", i, s, ymin, ymax)
		}
	}
	type node struct {
		i         int
		deg, mean float64
	}
	var got []node
	var dmax float64
	for len(got) < samples {
		i := rng.IntN(n)
		if isLab[i] {
			continue
		}
		var num, den float64
		for j, xj := range d.x {
			if j == i {
				continue
			}
			w := epanechnikov(dist2(d.x[i], xj), d.h)
			num += w * scores[j]
			den += w
		}
		if den == 0 {
			return fmt.Errorf("fit: unlabeled point %d has no neighbour", i)
		}
		got = append(got, node{i, den, num / den})
		dmax = math.Max(dmax, den)
	}
	bNorm := math.Sqrt(float64(n-len(d.labeled))) * 1.5 * dmax * yabs
	for _, s := range got {
		tol := 10*fitResidualTol*bNorm/s.deg + 1e-12
		if diff := math.Abs(scores[s.i] - s.mean); !(diff <= tol) {
			return fmt.Errorf("fit: point %d scored %.17g, neighbour mean %.17g (diff %.3g > tol %.3g)", s.i, scores[s.i], s.mean, diff, tol)
		}
	}
	return nil
}

// checkVersions checks that the served version rose exactly once per
// ingested batch: seen[b] is the version of the first response after
// batch b, starting from the fitted version v0.
func checkVersions(v0 int64, seen []int64) error {
	for b, v := range seen {
		if want := v0 + int64(b) + 1; v != want {
			return fmt.Errorf("ingest: after batch %d the served version is %d, want %d", b, v, want)
		}
	}
	return nil
}
