package main

// metricDef declares one metric. BENCHMARK.json lists the same names and
// units (TestBenchmarkJSONMatches keeps the two in step).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every untraced run reports. Each workload has
// one kind of operation, so the names are shared; README.md says what an
// operation and a point are on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},        // median set-up time
	{"op_p50_ms", "ms"},     // median wall time of one operation
	{"op_cpu_ms", "ms"},     // CPU time of the working process per operation
	{"op_alloc_mb", "MB"},   // bytes the working process allocates per operation
	{"points_per_s", "1/s"}, // points processed per second of the measured phase
}

// perLayer are the metrics every traced run reports; layers a workload
// does not reach read 0.
var perLayer = []metricDef{
	// fit (graph.build_s and core.solve_s also on serve)
	{"graph.build_s", "s"},
	{"graph.edges", "count"},
	{"core.problem_s", "s"},
	{"core.solve_s", "s"},
	{"core.probe_s", "s"},
	{"core.assemble_s", "s"},
	{"precond.setup_s", "s"},
	{"sparse.pcg_s", "s"},
	{"sparse.pcg_iterations", "count"},
	{"core.fallbacks", "count"},
	{"graphssl.other_s", "s"},
	{"runtime.gc_cpu_s", "s"},
	// serve
	{"graphssl.snapshot_s", "s"},
	{"serve.new_model_s", "s"},
	{"serve.fit_request_s", "s"},
	{"core.nw_predict_us", "us"},
	{"serve.batcher_do_us", "us"},
	{"serve.http_overhead_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.batch_points", "count"},
	{"serve.shed", "count"},
	// ingest (serve.cache_hit_ratio also here)
	{"stream.new_s", "s"},
	{"stream.insert_us", "us"},
	{"stream.refresh_ms", "ms"},
	{"stream.refresh_iterations", "count"},
	{"stream.side_rebuilds", "count"},
	{"stream.escalations", "count"},
	{"stream.take_delta_us", "us"},
	{"serve.apply_delta_ms", "ms"},
	{"serve.registry_store_us", "us"},
	{"serve.ingest_overhead_ms", "ms"},
	{"serve.delta_rollforwards", "count"},
	{"serve.full_rollforwards", "count"},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("lifebench: undeclared metric " + name)
}

// sizes fixes the work of one run. defaultSizes derives it from the
// nominal run length, so equal -seconds always means equal work.
type sizes struct {
	Setups       int // set-ups per serve or ingest run; setup_s is their median
	CheckSamples int // points checked against the independent computation

	FitN          int // planar grid points
	FitLabelEvery int // one labeled point in FitLabelEvery
	FitRounds     int // timed fits after the warm-up
	FitTwins      int // traced decompositions of a fit

	ServeLabeled   int // Model 2 labeled points
	ServeUnlabeled int // Model 2 unlabeled points
	ServeWarmup    int // untimed predict requests before measuring
	ServeRequests  int // timed predict requests
	PointsPerReq   int // points per predict request
	HotSet         int // points repeated by the hot requests

	IngestBase    int // base planar grid points
	IngestBatches int // timed ingest batches
	IngestBatch   int // points per batch
	ReadsPerBatch int // predict requests the reading client sends per batch
}

func defaultSizes(seconds int) sizes {
	return sizes{
		Setups:       3,
		CheckSamples: 256,

		FitN:          100_000,
		FitLabelEvery: 100,
		FitRounds:     max(3, (seconds+4)/5),
		FitTwins:      2,

		ServeLabeled:   10_000,
		ServeUnlabeled: 1_000,
		ServeWarmup:    256,
		ServeRequests:  8 * ((seconds*300 + 7) / 8),
		PointsPerReq:   16,
		HotSet:         64,

		IngestBase:    20_000,
		IngestBatches: max(4, 2*seconds),
		IngestBatch:   256,
		ReadsPerBatch: 256,
	}
}
