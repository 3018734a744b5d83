package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one cmd/sslserve process, started with its default settings
// on a free loopback port.
type server struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{}
}

// startServer starts bin and waits until it listens.
func startServer(bin string) (*server, error) {
	if bin == "" {
		return nil, errors.New("no sslserve binary given (-server)")
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sslserve: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Forward the server's log and keep its pipe drained until it
		// exits.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			l := sc.Text()
			if a, ok := strings.CutPrefix(l, "sslserve: listening on "); ok {
				a, _, _ = strings.Cut(a, " ")
				select {
				case addr <- a:
				default:
				}
			}
			fmt.Fprintln(os.Stderr, l)
		}
		_ = cmd.Wait()
		close(s.exited)
	}()
	select {
	case a := <-addr:
		s.url = "http://" + a
		return s, nil
	case <-s.exited:
		return nil, errors.New("sslserve exited before listening")
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("sslserve did not listen within 30s")
	}
}

// stop drains the server with SIGTERM and waits for it to exit, killing
// it if the drain takes too long.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// cpuSeconds reads the server's user plus system CPU time from
// /proc/<pid>/stat.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(s.pid()) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	_, rest, ok := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, errors.New("unexpected /proc/<pid>/stat format")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unexpected /proc/<pid>/stat format")
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times on Linux.
const clockTicks = 100

// serverVars are the /debug/vars counters the benchmark reads.
type serverVars struct {
	Mem struct {
		TotalAlloc uint64 `json:"TotalAlloc"`
	} `json:"memstats"`
	CacheHits     int64 `json:"graphssl.serve.cache_hits"`
	CacheMisses   int64 `json:"graphssl.serve.cache_misses"`
	Batches       int64 `json:"graphssl.serve.batches_total"`
	BatchedPoints int64 `json:"graphssl.serve.batched_points_total"`
	ShedQueue     int64 `json:"graphssl.serve.shed_queue"`
	ShedBudget    int64 `json:"graphssl.serve.shed_budget"`
	DeltaRolls    int64 `json:"graphssl.serve.ingest.delta_rollforwards"`
	FullRolls     int64 `json:"graphssl.serve.ingest.full_rollforwards"`
	IngestErrors  int64 `json:"graphssl.serve.ingest.errors_total"`
}

// sample is a reading of the server's counters and CPU time.
type sample struct {
	vars serverVars
	cpu  float64
}

func (s *server) sample(c *http.Client) (sample, error) {
	var out sample
	resp, err := c.Get(s.url + "/debug/vars")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out.vars); err != nil {
		return out, fmt.Errorf("decode /debug/vars: %w", err)
	}
	out.cpu, err = s.cpuSeconds()
	return out, err
}

// newClient is the generator's HTTP client: at most two connections,
// matching the two client goroutines.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true},
		Timeout:   120 * time.Second,
	}
}

// post sends a JSON body and decodes a JSON answer into out; any status
// other than want is an error.
func post(c *http.Client, url string, body []byte, want int, out any) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	if out != nil {
		return json.Unmarshal(b, out)
	}
	return nil
}

// fitRequest is the body of POST /v1/models/{name}.
type fitRequest struct {
	X         [][]float64 `json:"x"`
	Y         []float64   `json:"y"`
	Labeled   []int       `json:"labeled"`
	Kernel    string      `json:"kernel"`
	Bandwidth float64     `json:"bandwidth"`
	Stream    bool        `json:"stream,omitempty"`
}

type fitResponse struct {
	Version int64   `json:"version"`
	Seconds float64 `json:"seconds"`
}

type predictRequest struct {
	Model  string      `json:"model"`
	Points [][]float64 `json:"points"`
}

type predictResponse struct {
	Version int64     `json:"version"`
	Scores  []float64 `json:"scores"`
	Errors  []string  `json:"errors"`
}

// predict sends one predict request; a response that does not score
// every point is an error.
func predict(c *http.Client, url string, body []byte, npts int) (predictResponse, error) {
	var pr predictResponse
	if err := post(c, url+"/v1/predict", body, http.StatusOK, &pr); err != nil {
		return pr, err
	}
	if len(pr.Scores) != npts {
		return pr, fmt.Errorf("predict: %d scores for %d points", len(pr.Scores), npts)
	}
	for i, e := range pr.Errors {
		if e != "" {
			return pr, fmt.Errorf("predict: point %d: %s", i, e)
		}
	}
	return pr, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain slices and numbers are marshalled
	}
	return b
}

// setup is the outcome of setupServer.
type setup struct {
	srv   *server
	fit   fitResponse
	times []float64 // seconds per set-up
	rss   float64   // largest peak RSS (MB) of the servers already stopped
}

// setupServer starts the server and fits the model `times` times. It
// returns the last server (the earlier ones are stopped) and the fit
// response. Each set-up is timed from starting the process to the first
// predict answered by the fitted model; the fit request's own round trip
// is recorded under the "serve.fit_request" span. A server's peak RSS
// depends on where its garbage collections fall, so the workloads report
// the largest over all the set-ups' servers.
func setupServer(r *run, c *http.Client, fitBody, probeBody []byte, times int) (setup, error) {
	var s setup
	for i := range times {
		if s.srv != nil {
			s.rss = max(s.rss, peakRSSMB(s.srv.pid()))
			s.srv.stop()
			c.CloseIdleConnections()
		}
		sp := r.tr.begin("setup", -1)
		t0 := time.Now()
		srv, err := startServer(r.serverBin)
		if err != nil {
			return s, err
		}
		s.srv = srv
		fsp := r.tr.begin("serve.fit_request", sp)
		err = post(c, srv.url+"/v1/models/m", fitBody, http.StatusOK, &s.fit)
		r.tr.end(fsp)
		if r.op(err) {
			_, err = predict(c, srv.url, probeBody, 1)
		}
		el := time.Since(t0)
		r.tr.end(sp)
		if err != nil {
			srv.stop()
			return s, fmt.Errorf("set-up %d: %w", i, err)
		}
		s.times = append(s.times, el.Seconds())
	}
	return s, nil
}
