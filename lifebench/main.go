// Command lifebench is the repository's benchmark. One run drives one of
// three workloads against the program's public entry points, checks the
// outputs against computations made apart from the program, writes a
// result file, and prints one JSON line:
//
//	lifebench -workload fit|serve|ingest -seed N -seconds S -trace 0|1 \
//	          -server path/to/sslserve -out results/
//	lifebench compare [-bench BENCHMARK.json] DIR_A DIR_B
//
// With -trace 0 the line carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics, derived from spans recorded around calls
// into each layer on in-process twins of the same inputs. The compare
// subcommand checks two sets of result files against the bounds in
// BENCHMARK.json. run.sh builds everything from source and calls this
// command; see README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout))
	}
	os.Exit(runBench(os.Args[1:], os.Stdout))
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is the state of one benchmark run: its parameters, the operation
// counts, and the metrics the workload fills in.
type run struct {
	workload  string
	seed      int64
	seconds   int
	sz        sizes
	tr        *tracer // nil for untraced runs
	serverBin string

	attempted, failed int
	checkErrs         []string
	e2e               map[string]metric // the end-to-end metrics, measured with or without tracing
	layers            map[string]metric // per-layer metrics (traced runs)
	detail            map[string]metric // the same numbers under their per-workload names
}

func (r *run) setE2E(name string, v float64) { r.e2e[name] = metric{v, unitOf(endToEnd, name)} }

func (r *run) setLayer(name string, v float64) {
	if r.tr != nil {
		r.layers[name] = metric{v, unitOf(perLayer, name)}
	}
}

func (r *run) setDetail(name, unit string, v float64) { r.detail[name] = metric{v, unit} }

// fail records a failed output check.
func (r *run) fail(err error) {
	if err != nil {
		r.checkErrs = append(r.checkErrs, err.Error())
	}
}

// op counts one attempted operation and, when err is non-nil, one failure.
func (r *run) op(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintln(os.Stderr, "lifebench: operation failed:", err)
		return false
	}
	return true
}

// result is the machine-readable record every run writes.
type result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      bool              `json:"trace"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	CheckErrs  []string          `json:"check_errors,omitempty"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`
	Detail     map[string]metric `json:"detail"`
	Host       host              `json:"host"`
	StealShare float64           `json:"steal_share"`
	WallS      float64           `json:"wall_s"`
	Spans      string            `json:"spans_file,omitempty"`
}

// line is the last line of standard output.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runBench(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("lifebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: fit, serve or ingest")
	seed := fs.Int64("seed", 1, "seed the inputs are made from")
	seconds := fs.Int("seconds", 15, "nominal measured seconds; fixes the amount of work per run")
	traced := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	serverBin := fs.String("server", "", "path to the sslserve binary (serve and ingest)")
	out := fs.String("out", "", "directory for result and span files (empty = none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "lifebench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	r := &run{
		workload:  *workload,
		seed:      *seed,
		seconds:   *seconds,
		sz:        defaultSizes(*seconds),
		serverBin: *serverBin,
		e2e:       map[string]metric{},
		layers:    map[string]metric{},
		detail:    map[string]metric{},
	}
	if *traced == 1 {
		r.tr = newTracer()
	}
	res, err := execute(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lifebench:", err)
		return 1
	}
	if *out != "" {
		if err := writeResult(*out, r, res); err != nil {
			fmt.Fprintln(os.Stderr, "lifebench:", err)
			return 1
		}
	}
	for _, e := range res.CheckErrs {
		fmt.Fprintln(os.Stderr, "lifebench: check failed:", e)
	}
	metrics := res.EndToEnd
	if res.Trace {
		metrics = res.PerLayer
	}
	b, err := json.Marshal(line{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lifebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// execute runs r's workload and assembles its result. It fails when the
// workload cannot run at all or leaves a declared metric unset.
func execute(r *run) (*result, error) {
	workloads := map[string]func(*run) error{"fit": runFit, "serve": runServe, "ingest": runIngest}
	wl, ok := workloads[r.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want fit, serve or ingest)", r.workload)
	}
	if r.tr != nil {
		// Layers the workload does not reach read 0.
		for _, m := range perLayer {
			r.layers[m.name] = metric{0, m.unit}
		}
	}
	steal0, _ := readSteal()
	start := time.Now()
	if err := wl(r); err != nil {
		return nil, fmt.Errorf("%s: %w", r.workload, err)
	}
	wall := time.Since(start).Seconds()
	steal1, _ := readSteal()
	for _, m := range endToEnd {
		if _, ok := r.e2e[m.name]; !ok {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", r.workload, m.name)
		}
	}
	return &result{
		Workload:   r.workload,
		Seed:       r.seed,
		Seconds:    r.seconds,
		Trace:      r.tr != nil,
		Correct:    len(r.checkErrs) == 0,
		Attempted:  r.attempted,
		Failed:     r.failed,
		CheckErrs:  r.checkErrs,
		EndToEnd:   r.e2e,
		PerLayer:   r.layers,
		Detail:     r.detail,
		Host:       readHost(),
		StealShare: steal1.share(steal0),
		WallS:      wall,
	}, nil
}

// writeResult writes the result file (and the spans of a traced run) into
// dir, named by workload, seed, trace flag and time.
func writeResult(dir string, r *run, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-s%d-t%d-%d", r.workload, r.seed, btoi(res.Trace), time.Now().UnixNano())
	if r.tr != nil {
		res.Spans = base + ".spans.json"
		if err := r.tr.write(filepath.Join(dir, res.Spans)); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, base+".json"), append(b, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// host identifies the machine and build a result came from.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
}

func readHost() host {
	h := host{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), CPUModel: "unknown", GitRev: gitRev()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// gitRev reads the commit the working directory is checked out at from
// .git without running git; "unknown" outside a git checkout.
func gitRev() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if rev, name, ok := strings.Cut(l, " "); ok && name == ref {
				return rev
			}
		}
	}
	return "unknown"
}

// cpuTimes is the aggregate line of /proc/stat, in clock ticks.
type cpuTimes struct{ total, steal uint64 }

func readSteal() (cpuTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	first, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(first)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}, errors.New("unexpected /proc/stat format")
	}
	var t cpuTimes
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}, err
		}
		// guest and guest_nice (fields 9 and 10) are already counted in user.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}

// share is the fraction of CPU time stolen by the hypervisor between two
// readings.
func (t cpuTimes) share(prev cpuTimes) float64 {
	if t.total <= prev.total {
		return 0
	}
	return float64(t.steal-prev.steal) / float64(t.total-prev.total)
}
