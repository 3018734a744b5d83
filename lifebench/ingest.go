package main

import (
	"fmt"
	"net/http"
	"time"

	graphssl "repro"
	"repro/serve"
	"repro/stream"
)

// ingestNeighbours is the mean number of base points inside one kernel
// ball of the ingest workload.
const ingestNeighbours = 32

// ingestRequest is the body of POST /v1/ingest.
type ingestRequest struct {
	Model  string      `json:"model"`
	Points [][]float64 `json:"points"`
	Y      []float64   `json:"y"`
}

// runIngest is the ingest workload: labeled batches streamed into a
// "stream": true planar model over POST /v1/ingest, each sent once the
// previous one is servable, while a second client keeps predicting. An
// operation is one batch, from its POST to the first predict response
// carrying the new version; a point is one ingested point.
func runIngest(r *run) error {
	sz := r.sz
	base := gridInput(newRNG(r.seed, streamIngestGrid), sz.IngestBase, 10, ingestNeighbours)
	brng := newRNG(r.seed, streamIngestBatches)
	batches := make([]ingestRequest, sz.IngestBatches)
	bodies := make([][]byte, len(batches))
	for b := range batches {
		q := ingestRequest{Model: "m", Points: make([][]float64, sz.IngestBatch), Y: make([]float64, sz.IngestBatch)}
		for i := range q.Points {
			q.Points[i] = []float64{brng.Float64(), brng.Float64()}
			q.Y[i] = response(brng, q.Points[i])
		}
		batches[b], bodies[b] = q, mustJSON(q)
	}
	anchors := anchorsOf(base)
	rrng := newRNG(r.seed, streamIngestReads)
	fresh := func() []float64 { return nearPoint(rrng, anchors[rrng.IntN(len(anchors))], 0.5*base.h) }
	hot := make([][]float64, sz.HotSet)
	for i := range hot {
		hot[i] = fresh()
	}
	hotCounter := 0
	reads := make([][]request, len(batches))
	for b := range reads {
		reads[b] = mix(sz.ReadsPerBatch, sz.PointsPerReq, hot, fresh, &hotCounter)
	}
	fitBody := mustJSON(fitRequest{X: base.x, Y: base.y, Labeled: base.labeled, Kernel: "epanechnikov", Bandwidth: base.h, Stream: true})
	probe := mustJSON(predictRequest{Model: "m", Points: [][]float64{anchors[0]}})

	c := newClient()
	defer c.CloseIdleConnections()
	su, err := setupServer(r, c, fitBody, probe, sz.Setups)
	if err != nil {
		return err
	}
	srv, fit, setup := su.srv, su.fit, su.times
	defer srv.stop()

	var tw *ingestTwin
	if r.tr != nil {
		if tw, err = newIngestTwin(r, base); err != nil {
			return err
		}
	}
	s0, err := srv.sample(c)
	if err != nil {
		return err
	}
	var (
		stale, readLat, overhead []float64
		seen                     = make([]int64, len(batches))
		readPts                  int
		version                  = fit.Version
		twinTime                 time.Duration
	)
	t0 := time.Now()
	for b := range batches {
		done := make(chan []answer)
		go func() { done <- readLoop(c, srv.url, reads[b], r.tr) }()
		sp := r.tr.begin("http.ingest", -1)
		tb := time.Now()
		err := post(c, srv.url+"/v1/ingest", bodies[b], http.StatusAccepted, nil)
		if err == nil {
			seen[b], err = waitVersion(c, srv.url, probe, version)
		}
		el := time.Since(tb)
		r.tr.end(sp)
		ok := r.op(err)
		if ok {
			stale = append(stale, el.Seconds())
			version = seen[b]
		}
		for i, a := range <-done {
			if r.op(a.err) {
				readLat = append(readLat, a.dur.Seconds())
				readPts += len(reads[b][i].pts)
				if a.resp.Version < fit.Version+int64(b) {
					r.fail(fmt.Errorf("ingest: read during batch %d answered by version %d, older than the last published %d", b, a.resp.Version, fit.Version+int64(b)))
				}
			}
		}
		if tw != nil {
			// A traced run replays each batch in process right after the
			// server has published it, so the twin and the client meet
			// the host at the same moments; the twin's time is left out
			// of the wall time.
			t := time.Now()
			d, err := tw.batch(batches[b])
			if err != nil {
				return err
			}
			twinTime += time.Since(t)
			if ok {
				overhead = append(overhead, el.Seconds()-d)
			}
		}
	}
	wall := time.Since(t0) - twinTime
	s1, err := srv.sample(c)
	if err != nil {
		return err
	}
	rss := max(su.rss, peakRSSMB(srv.pid()))
	if len(stale) == 0 {
		return fmt.Errorf("every ingest batch failed")
	}

	// Output checks: one version per batch, and the final model's scores
	// equal brute-force NW over the base labels plus every ingested point.
	r.fail(checkVersions(fit.Version, seen))
	allA, allY := append([][]float64(nil), anchors...), append([]float64(nil), base.y...)
	for _, q := range batches {
		allA = append(allA, q.Points...)
		allY = append(allY, q.Y...)
	}
	crng := newRNG(r.seed, streamChecks)
	checkQ := make([][]float64, sz.CheckSamples)
	for i := range checkQ {
		checkQ[i] = nearPoint(crng, allA[crng.IntN(len(allA))], 0.5*base.h)
	}
	served, v, err := predictAll(c, srv.url, checkQ)
	if err != nil {
		r.fail(fmt.Errorf("ingest: final check predict: %w", err))
	} else {
		if want := fit.Version + int64(len(batches)); v != want {
			r.fail(fmt.Errorf("ingest: final version %d, want %d", v, want))
		}
		r.fail(checkNW(allA, allY, base.h, checkQ, served))
	}
	if s1.vars.IngestErrors != s0.vars.IngestErrors {
		r.fail(fmt.Errorf("ingest: the server counted %d ingest errors", s1.vars.IngestErrors-s0.vars.IngestErrors))
	}

	nb := float64(len(batches))
	cpu := s1.cpu - s0.cpu
	ingested := float64(len(stale) * sz.IngestBatch)
	r.setE2E("setup_s", median(setup))
	r.setE2E("op_p50_ms", 1e3*median(stale))
	r.setE2E("op_cpu_ms", 1e3*cpu/nb)
	r.setE2E("op_alloc_mb", float64(s1.vars.Mem.TotalAlloc-s0.vars.Mem.TotalAlloc)/1e6/nb)
	r.setE2E("points_per_s", ingested/wall.Seconds())
	r.setDetail("setup_s", "s", median(setup))
	r.setDetail("ingest_p50_ms", "ms", 1e3*median(stale))
	r.setDetail("ingest_points_per_s", "1/s", ingested/wall.Seconds())
	r.setDetail("predict_p50_ms", "ms", 1e3*median(readLat))
	r.setDetail("predict_points_per_s", "1/s", float64(readPts)/wall.Seconds())
	r.setDetail("peak_rss_mb", "MB", rss)
	r.setDetail("batches", "count", nb)
	serverLayers(r, s0, s1)
	deltaRolls, fullRolls := float64(s1.vars.DeltaRolls-s0.vars.DeltaRolls), float64(s1.vars.FullRolls-s0.vars.FullRolls)
	r.setDetail("delta_rollforwards", "count", deltaRolls)
	r.setDetail("full_rollforwards", "count", fullRolls)
	r.setLayer("serve.delta_rollforwards", deltaRolls)
	r.setLayer("serve.full_rollforwards", fullRolls)

	if tw != nil {
		tw.layers(median(overhead))
	}
	return nil
}

// readLoop is the reading client: it sends its requests one after the
// other.
func readLoop(c *http.Client, url string, reqs []request, tr *tracer) []answer {
	out := make([]answer, len(reqs))
	for i, q := range reqs {
		sp := tr.begin("http.predict.read", -1)
		t0 := time.Now()
		resp, err := predict(c, url, q.body, len(q.pts))
		out[i] = answer{resp, time.Since(t0), err}
		tr.end(sp)
	}
	return out
}

// waitVersion polls a one-point predict every 2ms until the served
// version passes after, and returns the first newer version seen.
func waitVersion(c *http.Client, url string, probe []byte, after int64) (int64, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		pr, err := predict(c, url, probe, 1)
		if err != nil {
			return 0, err
		}
		if pr.Version > after {
			return pr.Version, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("ingest: version still %d after 60s", pr.Version)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// predictAll scores pts in requests of at most 64 points and returns the
// scores and the version that answered (an error if versions differ).
func predictAll(c *http.Client, url string, pts [][]float64) ([]float64, int64, error) {
	var out []float64
	var version int64 = -1
	for lo := 0; lo < len(pts); lo += 64 {
		chunk := pts[lo:min(lo+64, len(pts))]
		pr, err := predict(c, url, mustJSON(predictRequest{Model: "m", Points: chunk}), len(chunk))
		if err != nil {
			return nil, 0, err
		}
		if version >= 0 && pr.Version != version {
			return nil, 0, fmt.Errorf("versions %d and %d answered one check", version, pr.Version)
		}
		version = pr.Version
		out = append(out, pr.Scores...)
	}
	return out, version, nil
}

// ingestTwin is the streaming model's in-process twin on the same inputs,
// with the server's default settings: it performs what the server's
// ingest worker does for each batch.
type ingestTwin struct {
	r   *run
	ing *stream.Ingestor
	m   *serve.Model
	reg serve.Registry
}

// newIngestTwin replays the streaming fit of the base and publishes it.
func newIngestTwin(r *run, base dataset) (*ingestTwin, error) {
	tr := r.tr
	sp := tr.begin("stream.new", -1)
	ing, err := stream.New(base.x, base.y, base.labeled, stream.Config{Kernel: graphssl.Epanechnikov, Bandwidth: base.h, Workers: 1})
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("twin stream: %w", err)
	}
	snap, err := ing.Snapshot()
	if err != nil {
		return nil, err
	}
	t := &ingestTwin{r: r, ing: ing}
	if t.m, err = serve.NewModel(snap, serve.WithWorkers(1)); err != nil {
		return nil, err
	}
	if _, err := t.reg.Store("m", t.m); err != nil {
		return nil, err
	}
	return t, nil
}

// batch folds one batch in: the inserts, the refresh, the delta, the
// roll-forward and the registry swap. It returns the batch's seconds.
func (t *ingestTwin) batch(q ingestRequest) (float64, error) {
	tr := t.r.tr
	t0 := time.Now()
	root := tr.begin("stream.batch", -1)
	defer tr.end(root)
	for i, p := range q.Points {
		sp := tr.begin("stream.insert", root)
		_, err := t.ing.InsertLabeled(p, q.Y[i])
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("twin insert: %w", err)
		}
	}
	sp := tr.begin("stream.refresh", root)
	out, err := t.ing.Refresh()
	tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("twin refresh: %w", err)
	}
	tr.value("stream.refresh_iterations", float64(out.Iterations))
	sp = tr.begin("stream.take_delta", root)
	d, ok := t.ing.TakeDelta()
	tr.end(sp)
	if !ok {
		return 0, fmt.Errorf("twin: labeled appends gave no delta")
	}
	sp = tr.begin("serve.apply_delta", root)
	m, err := t.m.ApplyDelta(d)
	tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("twin apply delta: %w", err)
	}
	t.m = m
	sp = tr.begin("serve.registry_store", root)
	_, err = t.reg.Store("m", m)
	tr.end(sp)
	return time.Since(t0).Seconds(), err
}

// layers sets the stream layer metrics. overhead is the client's batch
// time less the twin's, batch by batch.
func (t *ingestTwin) layers(overhead float64) {
	r, tr := t.r, t.r.tr
	st := t.ing.Stats()
	r.setLayer("stream.new_s", tr.med("stream.new"))
	r.setLayer("stream.insert_us", 1e6*tr.med("stream.insert"))
	r.setLayer("stream.refresh_ms", 1e3*tr.med("stream.refresh"))
	r.setLayer("stream.refresh_iterations", tr.medValue("stream.refresh_iterations"))
	r.setLayer("stream.side_rebuilds", float64(st.SideRebuilds))
	r.setLayer("stream.escalations", float64(st.Escalations))
	r.setLayer("stream.take_delta_us", 1e6*tr.med("stream.take_delta"))
	r.setLayer("serve.apply_delta_ms", 1e3*tr.med("serve.apply_delta"))
	r.setLayer("serve.registry_store_us", 1e6*tr.med("serve.registry_store"))
	r.setLayer("serve.ingest_overhead_ms", 1e3*overhead)
}
