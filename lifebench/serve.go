package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	graphssl "repro"
	"repro/serve"
)

// request is one pre-encoded predict request. hot requests repeat a
// window of the hot set; the others carry fresh points, never sent
// before.
type request struct {
	body []byte
	pts  [][]float64
	hot  bool
	hotW int // hot window index
}

// mix makes n predict requests of ppr points: every fourth request (the
// first included) repeats the next window of the hot set, the other three
// carry fresh points from fresh().
func mix(n, ppr int, hot [][]float64, fresh func() []float64, hotCounter *int) []request {
	reqs := make([]request, n)
	windows := len(hot) / ppr
	for i := range reqs {
		var pts [][]float64
		q := request{}
		if i%4 == 0 {
			w := *hotCounter % windows
			*hotCounter++
			pts = hot[w*ppr : (w+1)*ppr]
			q.hot, q.hotW = true, w
		} else {
			pts = make([][]float64, ppr)
			for k := range pts {
				pts[k] = fresh()
			}
		}
		q.pts = pts
		q.body = mustJSON(predictRequest{Model: "m", Points: pts})
		reqs[i] = q
	}
	return reqs
}

// answer is the outcome of one predict request.
type answer struct {
	resp predictResponse
	dur  time.Duration
	err  error
}

// drive sends reqs from two closed-loop clients: client k sends requests
// k, k+2, k+4, … one after the other.
func drive(c *http.Client, url string, reqs []request, tr *tracer) []answer {
	out := make([]answer, len(reqs))
	var wg sync.WaitGroup
	for k := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k; i < len(reqs); i += 2 {
				name := "http.predict.miss"
				if reqs[i].hot {
					name = "http.predict.hot"
				}
				sp := tr.begin(name, -1)
				t0 := time.Now()
				resp, err := predict(c, url, reqs[i].body, len(reqs[i].pts))
				out[i] = answer{resp, time.Since(t0), err}
				tr.end(sp)
			}
		}()
	}
	wg.Wait()
	return out
}

// runServe is the serve workload: read-only predict traffic against a
// model fitted over HTTP on the paper's Model 2. An operation is one
// predict request; a point is one scored query point.
func runServe(r *run) error {
	sz := r.sz
	d, err := model2Input(r.seed, sz.ServeLabeled, sz.ServeUnlabeled)
	if err != nil {
		return err
	}
	anchors := anchorsOf(d)
	qrng := newRNG(r.seed, streamServeQueries)
	fresh := func() []float64 { return nearPoint(qrng, anchors[qrng.IntN(len(anchors))], 0.5*d.h) }
	hot := make([][]float64, sz.HotSet)
	for i := range hot {
		hot[i] = fresh()
	}
	hotCounter := 0
	warm := mix(sz.ServeWarmup, sz.PointsPerReq, hot, fresh, &hotCounter)
	reqs := mix(sz.ServeRequests, sz.PointsPerReq, hot, fresh, &hotCounter)
	fitBody := mustJSON(fitRequest{X: d.x, Y: d.y, Labeled: d.labeled, Kernel: "epanechnikov", Bandwidth: d.h})
	probe := mustJSON(predictRequest{Model: "m", Points: [][]float64{anchors[0]}})

	c := newClient()
	defer c.CloseIdleConnections()
	su, err := setupServer(r, c, fitBody, probe, sz.Setups)
	if err != nil {
		return err
	}
	srv, fit, setup := su.srv, su.fit, su.times
	defer srv.stop()

	warmAns := drive(c, srv.url, warm, nil)
	var tw *serveTwin
	if r.tr != nil {
		if tw, err = newServeTwin(r, d); err != nil {
			return err
		}
		defer tw.b.Close()
	}
	s0, err := srv.sample(c)
	if err != nil {
		return err
	}
	// A traced run replays the start of each tenth of the timed requests
	// in process right after it, so the twin and the clients meet the
	// host at the same moments: its speed drifts by ±10 % within tens of
	// seconds. The twin's time is left out of the wall time.
	var (
		ans  []answer
		wall time.Duration
		step = len(reqs)
	)
	if tw != nil {
		step = max(4, len(reqs)/10&^3)
	}
	for lo := 0; lo < len(reqs); lo += step {
		part := reqs[lo:min(lo+step, len(reqs))]
		t0 := time.Now()
		ans = append(ans, drive(c, srv.url, part, r.tr)...)
		wall += time.Since(t0)
		if tw != nil {
			if err := tw.replay(part[:max(4, len(part)/8&^3)]); err != nil {
				return err
			}
		}
	}
	s1, err := srv.sample(c)
	if err != nil {
		return err
	}
	rss := max(su.rss, peakRSSMB(srv.pid()))

	// Output checks: one model version throughout, every hot point served
	// the same bits as its first answer, and sampled fresh points equal to
	// brute-force NW over the labeled points.
	first := map[int][]float64{}
	var lat, missLat []float64
	points := 0
	checkEvery := max(1, (len(reqs)*3/4)/max(1, sz.CheckSamples/sz.PointsPerReq))
	var checkQ [][]float64
	var checkS []float64
	for i, a := range append(warmAns, ans...) {
		q := warm
		j := i
		if i >= len(warm) {
			q, j = reqs, i-len(warm)
		}
		if !r.op(a.err) {
			continue
		}
		if a.resp.Version != fit.Version {
			r.fail(fmt.Errorf("serve: request %d answered by version %d, fitted %d", i, a.resp.Version, fit.Version))
		}
		if q[j].hot {
			if f, ok := first[q[j].hotW]; !ok {
				first[q[j].hotW] = a.resp.Scores
			} else {
				for k := range f {
					if math.Float64bits(f[k]) != math.Float64bits(a.resp.Scores[k]) {
						r.fail(fmt.Errorf("serve: hot point %d served %.17g, first served %.17g", q[j].hotW*sz.PointsPerReq+k, a.resp.Scores[k], f[k]))
					}
				}
			}
		} else if i%checkEvery == 0 {
			checkQ = append(checkQ, q[j].pts...)
			checkS = append(checkS, a.resp.Scores...)
		}
		if i >= len(warm) {
			lat = append(lat, a.dur.Seconds())
			if !q[j].hot {
				missLat = append(missLat, a.dur.Seconds())
			}
			points += len(q[j].pts)
		}
	}
	r.fail(checkNW(anchors, d.y, d.h, checkQ, checkS))
	if len(lat) == 0 {
		return fmt.Errorf("every predict request failed")
	}

	n := float64(len(reqs))
	cpu := s1.cpu - s0.cpu
	r.setE2E("setup_s", median(setup))
	r.setE2E("op_p50_ms", 1e3*median(lat))
	r.setE2E("op_cpu_ms", 1e3*cpu/n)
	r.setE2E("op_alloc_mb", float64(s1.vars.Mem.TotalAlloc-s0.vars.Mem.TotalAlloc)/1e6/n)
	r.setE2E("points_per_s", float64(points)/wall.Seconds())
	r.setDetail("setup_s", "s", median(setup))
	r.setDetail("predict_p50_ms", "ms", 1e3*median(lat))
	r.setDetail("predict_p90_ms", "ms", 1e3*quantile(lat, 0.9))
	r.setDetail("predict_miss_p50_ms", "ms", 1e3*median(missLat))
	r.setDetail("predict_points_per_s", "1/s", float64(points)/wall.Seconds())
	r.setDetail("predict_cpu_us", "us", 1e6*cpu/float64(points))
	r.setDetail("peak_rss_mb", "MB", rss)
	r.setDetail("requests", "count", n)
	serverLayers(r, s0, s1)

	if tw != nil {
		tw.layers(median(missLat))
	}
	return nil
}

// serverLayers derives the serve-layer counters from two readings of the
// server's /debug/vars.
func serverLayers(r *run, s0, s1 sample) {
	hits, misses := s1.vars.CacheHits-s0.vars.CacheHits, s1.vars.CacheMisses-s0.vars.CacheMisses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	batchPts := 0.0
	if b := s1.vars.Batches - s0.vars.Batches; b > 0 {
		batchPts = float64(s1.vars.BatchedPoints-s0.vars.BatchedPoints) / float64(b)
	}
	shed := float64(s1.vars.ShedQueue - s0.vars.ShedQueue + s1.vars.ShedBudget - s0.vars.ShedBudget)
	r.setDetail("cache_hit_ratio", "ratio", ratio)
	r.setDetail("batch_points", "count", batchPts)
	r.setDetail("shed", "count", shed)
	r.setLayer("serve.cache_hit_ratio", ratio)
	r.setLayer("serve.batch_points", batchPts)
	r.setLayer("serve.shed", shed)
}

// serveTwin is the served model's in-process twin on the same inputs,
// with the server's default settings: one worker and sslserve's default
// batcher.
type serveTwin struct {
	r *run
	m *serve.Model
	b *serve.Batcher
}

// newServeTwin replays the fit layers, the snapshot and the model build.
func newServeTwin(r *run, d dataset) (*serveTwin, error) {
	tr := r.tr
	if err := fitTwin(r, d, 1); err != nil {
		return nil, err
	}
	res, err := graphssl.Fit(d.x, d.y, d.labeled, graphssl.WithKernel(graphssl.Epanechnikov), graphssl.WithBandwidth(d.h), graphssl.WithWorkers(1))
	if err != nil {
		return nil, fmt.Errorf("twin fit: %w", err)
	}
	sp := tr.begin("graphssl.snapshot", -1)
	snap, err := res.Snapshot(d.x, d.y)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("serve.new_model", -1)
	m, err := serve.NewModel(snap, serve.WithWorkers(1))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &serveTwin{r: r, m: m, b: serve.NewBatcher(64, 500*time.Microsecond, 1024, 1)}, nil
}

// replay scores the fresh requests of reqs through Model.PredictBatch one
// by one, then through Batcher.Do from two goroutines that split reqs as
// the two HTTP clients do. Hot requests, cache hits over HTTP, are
// skipped.
func (t *serveTwin) replay(reqs []request) error {
	tr := t.r.tr
	for _, q := range reqs {
		if q.hot {
			continue
		}
		sp := tr.begin("core.nw_predict", -1)
		_, errs := t.m.PredictBatch(q.pts)
		tr.end(sp)
		if errs != nil {
			return fmt.Errorf("twin predict: %v", errs)
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, 2)
	for k := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k; i < len(reqs); i += 2 {
				if reqs[i].hot {
					continue
				}
				sp := tr.begin("serve.batcher_do", -1)
				res, err := t.b.Do(context.Background(), t.m, reqs[i].pts)
				tr.end(sp)
				if err != nil {
					errc <- err
					return
				}
				res.Release()
			}
		}()
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		return fmt.Errorf("twin batcher: %w", err)
	}
	return nil
}

// layers sets the serve layer metrics. missMed is the clients' median
// latency of fresh (uncached) requests, of which Batcher.Do is the
// compute part.
func (t *serveTwin) layers(missMed float64) {
	r, tr := t.r, t.r.tr
	r.setLayer("graph.build_s", tr.med("graph.build"))
	r.setLayer("core.solve_s", tr.med("core.solve"))
	r.setLayer("serve.fit_request_s", tr.med("serve.fit_request"))
	r.setLayer("graphssl.snapshot_s", tr.med("graphssl.snapshot"))
	r.setLayer("serve.new_model_s", tr.med("serve.new_model"))
	r.setLayer("core.nw_predict_us", 1e6*tr.med("core.nw_predict")/float64(r.sz.PointsPerReq))
	do := tr.med("serve.batcher_do")
	r.setLayer("serve.batcher_do_us", 1e6*do)
	r.setLayer("serve.http_overhead_us", 1e6*(missMed-do))
}
