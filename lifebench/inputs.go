package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/randx"
	"repro/internal/synth"
)

// Every input is a pure function of the run's seed: each generator draws
// from its own stream of the seed, so adding draws to one never shifts
// another.
const (
	streamFitGrid = iota + 1
	streamModel2
	streamServeQueries
	streamIngestGrid
	streamIngestBatches
	streamIngestReads
	streamChecks
)

func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// dataset is one fit input: points, the labeled indices, their responses
// (aligned with labeled) and the fixed kernel bandwidth.
type dataset struct {
	x       [][]float64
	y       []float64
	labeled []int
	h       float64
}

// response is the smooth planar response the grid workloads observe,
// plus a little noise.
func response(rng *rand.Rand, p []float64) float64 {
	return math.Sin(4*p[0])*math.Cos(3*p[1]) + 0.1*(2*rng.Float64()-1)
}

// gridInput makes an n-point jittered grid covering the unit square with
// every labelEvery-th point labeled, and the Epanechnikov bandwidth that
// puts about `neighbours` points inside each kernel ball. The jitter is a
// fifth of the spacing, so the radius graph is connected and every point
// of the square lies within the bandwidth of some grid point.
func gridInput(rng *rand.Rand, n, labelEvery int, neighbours float64) dataset {
	side := int(math.Ceil(math.Sqrt(float64(n))))
	jitter := 0.2 / float64(side)
	d := dataset{x: make([][]float64, n), h: math.Sqrt(neighbours/math.Pi) / float64(side)}
	for i := range d.x {
		px := (float64(i%side) + 0.5) / float64(side)
		py := (float64(i/side) + 0.5) / float64(side)
		d.x[i] = []float64{px + jitter*(2*rng.Float64()-1), py + jitter*(2*rng.Float64()-1)}
	}
	for i := 0; i < n; i += labelEvery {
		d.labeled = append(d.labeled, i)
		d.y = append(d.y, response(rng, d.x[i]))
	}
	return d
}

// model2Input draws the paper's synthetic Model 2 (d=5, censored normal
// inputs, logistic responses), labeled points first, at the paper's
// bandwidth (log n/n)^{1/5} for n labeled points. An unlabeled draw with
// no labeled point inside 0.9 h would be cut off from every label, and
// the fit rightly refuses such input, so those draws are replaced by
// further ones.
func model2Input(seed int64, nLab, nUnl int) (dataset, error) {
	g := randx.New(seed*1_000_003 + streamModel2)
	h := math.Pow(math.Log(float64(nLab))/float64(nLab), 1/float64(synth.Dim))
	d := dataset{h: h}
	for draw := 0; len(d.x) < nLab+nUnl; draw++ {
		if draw == 10 {
			return dataset{}, fmt.Errorf("model 2: too few unlabeled draws within 0.9h of a label")
		}
		batch, err := synth.Generate(g, synth.Model2, nLab, nUnl)
		if err != nil {
			return dataset{}, err
		}
		if d.x == nil {
			d.x = append(d.x, batch.X[:nLab]...)
			d.y = batch.YLabeled()
			for i := range nLab {
				d.labeled = append(d.labeled, i)
			}
		}
		for _, u := range batch.X[nLab:] {
			if len(d.x) == nLab+nUnl {
				break
			}
			if nearAny(d.x[:nLab], u, 0.9*h) {
				d.x = append(d.x, u)
			}
		}
	}
	return d, nil
}

func nearAny(pts [][]float64, q []float64, r float64) bool {
	for _, p := range pts {
		if dist2(p, q) < r*r {
			return true
		}
	}
	return false
}

// nearPoint returns a fresh point within radius r of p (a uniform offset
// in the cube of half-width r/√d), so its kernel mass is never zero when
// p is an anchor and r < h.
func nearPoint(rng *rand.Rand, p []float64, r float64) []float64 {
	s := r / math.Sqrt(float64(len(p)))
	q := make([]float64, len(p))
	for k := range q {
		q[k] = p[k] + s*(2*rng.Float64()-1)
	}
	return q
}

// anchorsOf returns the labeled points of d in ascending index order.
func anchorsOf(d dataset) [][]float64 {
	a := make([][]float64, len(d.labeled))
	for i, l := range d.labeled {
		a[i] = d.x[l]
	}
	return a
}

func dist2(a, b []float64) float64 {
	var s float64
	for k := range a {
		t := a[k] - b[k]
		s += t * t
	}
	return s
}
