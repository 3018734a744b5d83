package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	graphssl "repro"
	"repro/serve"
)

// tinySizes runs every code path of a workload in a few seconds.
func tinySizes() sizes {
	return sizes{
		Setups: 2, CheckSamples: 32,
		FitN: 2000, FitLabelEvery: 20, FitRounds: 2, FitTwins: 1,
		ServeLabeled: 500, ServeUnlabeled: 100, ServeWarmup: 16, ServeRequests: 32, PointsPerReq: 16, HotSet: 64,
		IngestBase: 2000, IngestBatches: 3, IngestBatch: 64, ReadsPerBatch: 8,
	}
}

// buildServer builds cmd/sslserve into a temporary directory.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sslserve")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/sslserve").CombinedOutput()
	if err != nil {
		t.Fatalf("build sslserve: %v\n%s", err, out)
	}
	return bin
}

func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	bin := buildServer(t)
	for _, wl := range []string{"fit", "serve", "ingest"} {
		for _, traced := range []bool{false, true} {
			r := &run{workload: wl, seed: 7, seconds: 1, sz: tinySizes(), serverBin: bin,
				e2e: map[string]metric{}, layers: map[string]metric{}, detail: map[string]metric{}}
			if traced {
				r.tr = newTracer()
			}
			res, err := execute(r)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d/%d checks=%v", wl, traced, res.Correct, res.Failed, res.Attempted, res.CheckErrs)
			}
			for _, m := range endToEnd {
				if v := res.EndToEnd[m.name].Value; !(v > 0) {
					t.Errorf("%s traced=%v: %s = %v, want > 0", wl, traced, m.name, v)
				}
			}
			if traced && len(res.PerLayer) != len(perLayer) {
				t.Errorf("%s: %d per-layer metrics, want %d", wl, len(res.PerLayer), len(perLayer))
			}
		}
	}
}

// TestChecksCatchPlantedFaults shows each output check passing on the
// program's real output and failing once a fault is planted in it.
func TestChecksCatchPlantedFaults(t *testing.T) {
	d := gridInput(newRNG(3, streamFitGrid), 900, 15, fitNeighbours)
	res, err := graphssl.Fit(d.x, d.y, d.labeled, graphssl.WithKernel(graphssl.Epanechnikov), graphssl.WithBandwidth(d.h))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFit(d, res.Scores, 400, newRNG(3, streamChecks)); err != nil {
		t.Fatalf("fit check on a correct fit: %v", err)
	}
	for _, node := range []int{res.Unlabeled[len(res.Unlabeled)/2], d.labeled[3]} {
		wrong := append([]float64(nil), res.Scores...)
		wrong[node] += 1e-4
		if checkFit(d, wrong, 400, newRNG(3, streamChecks)) == nil {
			t.Errorf("fit check missed a wrong score at node %d", node)
		}
	}

	// A served model after ingest: base labels plus ingested points, all
	// anchors of the NW predictor.
	anchors, values := anchorsOf(d), append([]float64(nil), d.y...)
	rng := newRNG(3, streamIngestBatches)
	for range 40 {
		p := []float64{rng.Float64(), rng.Float64()}
		anchors, values = append(anchors, p), append(values, response(rng, p))
	}
	queries := make([][]float64, 200)
	for i := range queries {
		queries[i] = nearPoint(rng, anchors[len(anchors)-1-i%40], 0.5*d.h)
	}
	served := func(a [][]float64, v []float64) []float64 {
		lab := make([]int, len(a))
		for i := range lab {
			lab[i] = i
		}
		m, err := serve.NewModel(&graphssl.ModelSnapshot{X: a, Y: v, Labeled: lab, Scores: v, Kernel: graphssl.Epanechnikov, Bandwidth: d.h})
		if err != nil {
			t.Fatal(err)
		}
		s, errs := m.PredictBatch(queries)
		if errs != nil {
			t.Fatal(errs)
		}
		return s
	}
	got := served(anchors, values)
	if err := checkNW(anchors, values, d.h, queries, got); err != nil {
		t.Fatalf("NW check on correct scores: %v", err)
	}
	got[17] += 1e-6
	if checkNW(anchors, values, d.h, queries, got) == nil {
		t.Error("NW check missed a wrong score")
	}
	last := len(anchors) - 1
	if checkNW(anchors, values, d.h, queries, served(anchors[:last], values[:last])) == nil {
		t.Error("NW check missed a dropped ingested point")
	}

	if err := checkVersions(4, []int64{5, 6, 7}); err != nil {
		t.Fatalf("version check on fresh versions: %v", err)
	}
	if checkVersions(4, []int64{5, 5, 7}) == nil {
		t.Error("version check missed a stale version")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables of
// this package in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range spec.Workloads {
		wls = append(wls, w.Name)
	}
	if !reflect.DeepEqual(wls, []string{"fit", "serve", "ingest"}) {
		t.Errorf("workloads %v", wls)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %v, here %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
