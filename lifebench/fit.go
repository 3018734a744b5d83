package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	graphssl "repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/sparse"
)

// fitNeighbours is the mean number of grid points inside one kernel ball
// of the fit workload.
const fitNeighbours = 30

// runFit is the fit workload: repeated graphssl.Fit calls with default
// options (SolverAuto) on distinct planar jittered grids, after one
// warm-up fit. Each timed fit gets its own grid, so no fit can reuse
// another's work. An operation is one Fit; a point is one input point.
func runFit(r *run) error {
	sz := r.sz
	// Set-up: making the inputs. setup_s is the median time to make one.
	inputs := make([]dataset, sz.FitRounds+1)
	var setup []float64
	for i := range inputs {
		t := time.Now()
		inputs[i] = gridInput(newRNG(r.seed, streamFitGrid+uint64(i)<<8), sz.FitN, sz.FitLabelEvery, fitNeighbours)
		setup = append(setup, time.Since(t).Seconds())
	}
	fitOpts := func(d dataset) []graphssl.Option {
		return []graphssl.Option{graphssl.WithKernel(graphssl.Epanechnikov), graphssl.WithBandwidth(d.h)}
	}
	// Every fit starts from a collected heap, so the garbage of the
	// previous one neither slows it nor moves its memory peak.
	runtime.GC()
	_, err := graphssl.Fit(inputs[0].x, inputs[0].y, inputs[0].labeled, fitOpts(inputs[0])...)
	r.op(err)

	var wall, cpu, alloc, gcCPU []float64
	scores := make([][]float64, len(inputs))
	for i := 1; i < len(inputs); i++ {
		d := inputs[i]
		runtime.GC()
		sp := r.tr.begin("graphssl.fit", -1)
		a0, g0, c0 := allocatedBytes(), readGCCPU(), processCPU()
		t0 := time.Now()
		res, err := graphssl.Fit(d.x, d.y, d.labeled, fitOpts(d)...)
		el := time.Since(t0)
		c1, g1, a1 := processCPU(), readGCCPU(), allocatedBytes()
		r.tr.end(sp)
		if !r.op(err) {
			continue
		}
		wall = append(wall, el.Seconds())
		cpu = append(cpu, c1-c0)
		alloc = append(alloc, float64(a1-a0)/1e6)
		gcCPU = append(gcCPU, g1-g0)
		scores[i] = res.Scores
	}
	if len(wall) == 0 {
		return fmt.Errorf("every fit failed")
	}
	rss := peakRSSMB(os.Getpid())

	for i := 1; i < len(inputs); i++ {
		if scores[i] != nil {
			r.fail(checkFit(inputs[i], scores[i], sz.CheckSamples/len(wall), newRNG(r.seed, streamChecks+uint64(i)<<8)))
		}
	}

	r.setE2E("setup_s", median(setup))
	r.setE2E("op_p50_ms", 1e3*median(wall))
	r.setE2E("op_cpu_ms", 1e3*median(cpu))
	r.setE2E("op_alloc_mb", median(alloc))
	r.setE2E("points_per_s", float64(sz.FitN*len(wall))/sum(wall))
	r.setDetail("fit_s", "s", median(wall))
	r.setDetail("fit_cpu_s", "s", median(cpu))
	r.setDetail("fit_alloc_mb", "MB", median(alloc))
	r.setDetail("peak_rss_mb", "MB", rss)
	r.setDetail("fits", "count", float64(len(wall)))

	if r.tr != nil {
		r.setLayer("runtime.gc_cpu_s", median(gcCPU))
		for k := 0; k < sz.FitTwins; k++ {
			if err := fitTwin(r, inputs[1+k%(len(inputs)-1)], 0); err != nil {
				return err
			}
		}
		fitLayers(r, r.tr.med("graphssl.fit"))
	}
	return nil
}

// fitTwin replays one fit layer by layer through the internal packages,
// with the options graphssl.Fit passes them by default, and records a
// span per layer. Fit itself is never timed through WithDiagnostics:
// that adds a health probe below the auto cutoff which the plain fit
// does not run.
func fitTwin(r *run, d dataset, workers int) error {
	tr := r.tr
	root := tr.begin("twin.fit", -1)
	defer tr.end(root)
	k, err := kernel.New(kernel.Epanechnikov, d.h)
	if err != nil {
		return err
	}
	b, err := graph.NewBuilder(k, graph.WithWorkers(workers))
	if err != nil {
		return err
	}
	sp := tr.begin("graph.build", root)
	g, err := b.Build(d.x)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("twin graph: %w", err)
	}
	tr.value("graph.edges", float64(g.EdgeCount()))
	sp = tr.begin("core.problem", root)
	p, err := core.NewProblem(g, d.labeled, d.y)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("twin problem: %w", err)
	}
	sp = tr.begin("core.solve", root)
	sol, err := core.SolveHard(p, core.WithMethod(core.MethodAuto), core.WithTolerance(fitResidualTol), core.WithWorkers(workers))
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("twin solve: %w", err)
	}
	// The solve's own trace times each backend attempt and the
	// preconditioner set-up inside it.
	var attempts, setup float64
	if sol.Trace != nil {
		for _, a := range sol.Trace.Attempts {
			attempts += a.Duration.Seconds()
			setup += a.PrecondSetup.Seconds()
		}
		tr.value("core.fallbacks", float64(len(sol.Trace.Fallbacks)))
		if sol.Trace.Health != nil {
			// The solve probed D22−W22; time the same probe on a copy
			// assembled here from the graph.
			a, err := hardMatrix(g, p)
			if err != nil {
				return err
			}
			sp = tr.begin("core.probe", root)
			_, err = core.ProbeHealth(a)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("twin probe: %w", err)
			}
		}
	}
	tr.value("solve.attempts_s", attempts)
	tr.value("precond.setup_s", setup)
	tr.value("sparse.pcg_iterations", float64(sol.Iterations))
	return nil
}

// fitLayers derives the fit layer metrics from the twin spans; fitMed is
// the median end-to-end Fit time of the same run.
func fitLayers(r *run, fitMed float64) {
	tr := r.tr
	build, problem, solve, probe := tr.med("graph.build"), tr.med("core.problem"), tr.med("core.solve"), tr.med("core.probe")
	attempts, setup := tr.medValue("solve.attempts_s"), tr.medValue("precond.setup_s")
	r.setLayer("graph.build_s", build)
	r.setLayer("graph.edges", tr.medValue("graph.edges"))
	r.setLayer("core.problem_s", problem)
	r.setLayer("core.solve_s", solve)
	r.setLayer("core.probe_s", probe)
	r.setLayer("core.assemble_s", solve-probe-attempts)
	r.setLayer("precond.setup_s", setup)
	r.setLayer("sparse.pcg_s", attempts-setup)
	r.setLayer("sparse.pcg_iterations", tr.medValue("sparse.pcg_iterations"))
	r.setLayer("core.fallbacks", tr.medValue("core.fallbacks"))
	if fitMed > 0 {
		r.setLayer("graphssl.other_s", fitMed-build-problem-solve)
	}
}

// hardMatrix assembles the hard criterion's system matrix D22 − W22 (D22
// the full degrees of the unlabeled nodes, W22 their mutual weights)
// straight from the graph.
func hardMatrix(g *graph.Graph, p *core.Problem) (*sparse.CSR, error) {
	w := g.Weights()
	unl := p.Unlabeled()
	pos := make([]int, g.N())
	for i := range pos {
		pos[i] = -1
	}
	for k, u := range unl {
		pos[u] = k
	}
	coo := sparse.NewCOO(len(unl), len(unl))
	for k, u := range unl {
		cols, vals := w.RowNNZ(u)
		var deg float64
		for c, j := range cols {
			deg += vals[c]
			if pos[j] >= 0 && vals[c] != 0 {
				if err := coo.Add(k, pos[j], -vals[c]); err != nil {
					return nil, err
				}
			}
		}
		if err := coo.Add(k, k, deg); err != nil {
			return nil, err
		}
	}
	return coo.ToCSR(), nil
}

var runtimeSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}

// allocatedBytes returns the bytes this process has allocated so far.
func allocatedBytes() uint64 {
	metrics.Read(runtimeSamples)
	return runtimeSamples[0].Value.Uint64()
}

// readGCCPU returns the CPU seconds spent in the garbage collector so
// far (the runtime's estimate).
func readGCCPU() float64 {
	metrics.Read(runtimeSamples)
	return runtimeSamples[1].Value.Float64()
}

// processCPU returns this process's user plus system CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB; 0 when it
// cannot be read.
func peakRSSMB(pid int) float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
