// Command perfbench is the repository benchmark. It drives the library's
// layers through their public functions on one seeded workload and prints
// one JSON result line. Run it from the repository root:
//
//	bash perfbench/run.sh --workload fit-grid --seed 1 --seconds 30 --trace 0
//
// Every workload runs the pipeline a user runs. In the fit phase, five
// Granger networks generated from the seed are written to .hbf files, and
// each is read back, fitted with UoI_VAR and encoded as a model artifact,
// in turn. In the serve phase, the first network's artifact is served by a
// uoiserve -stream -metrics equivalent on loopback while an open-loop load
// generator in a child process sends forecasts, top-k graph queries,
// one-row ingests and /metrics scrapes, and the ingests keep background
// refits running; in a traced run a read-only rate ladder then finds the
// highest forecast rate that meets the p99 limit. The workloads differ in
// the fit engine and the network size:
//
//   - fit-grid: p=48, n=1500, uoi.VARGrid on a 2x1 grid over 2 in-process
//     ranks. Compute-bound: mat, admm and uoi do almost all the work.
//   - fit-consensus: p=32, n=800, uoi.VARDistributed on 2 ranks (reader
//     windows, one-sided Kronecker assembly, consensus ADMM with one
//     Allreduce per iteration). mpi and kron dominate.
//   - serve-stream: p=16, a 512-row window, serial uoi.VAR fits; most of
//     the run is the serve phase, where serve, model, stream, graph and
//     telemetry do the work.
//
// With --trace 0 the run is untraced and reports the end-to-end metrics;
// with --trace 1 the fit and serve phases run with tracers attached and
// the run reports the per-layer metrics, including the tracing overhead.
// Correctness checks run in both modes; a failed check makes the result
// report "correct": false and the command exit 1.
//
// Before the result line the command prints a report line: the
// environment stamp, every metric with its unit and sample count, the
// ladder's per-step accounting and the check log.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// workload fixes one benchmark input family; the seed picks the instance.
type workload struct {
	name string
	// p channels, n fitted rows; order 1, sparse network of in-degree 3.
	p, n int
	// engine is the fit path: "grid", "consensus" or "serial".
	engine string
	// fitShare is the share of --seconds given to the fit phase; the
	// serve phase gets the rest.
	fitShare float64
}

var workloads = []workload{
	{name: "fit-grid", p: 48, n: 1500, engine: "grid", fitShare: 0.5},
	{name: "fit-consensus", p: 32, n: 800, engine: "consensus", fitShare: 0.5},
	{name: "serve-stream", p: 16, n: 512, engine: "serial", fitShare: 0.2},
}

// metric is one reported number; samples is the count it was computed
// from and appears only in the report line.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// run carries one benchmark invocation's inputs and accumulates its
// accounting, checks and metrics.
type run struct {
	w       workload
	seed    uint64
	seconds float64
	traced  bool
	dir     string // scratch directory inside the checkout

	attempted int
	failed    int
	checks    []string // failed checks
	metrics   map[string]metric
	ladder    []step
	heapWins  []heapWindow
	notes     map[string]any
}

func (r *run) count(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// fail records a failed correctness check (one failed operation).
func (r *run) fail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
	r.failed++
}

func (r *run) set(name, unit string, v float64, samples int) {
	r.metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
}

func (r *run) note(key string, v any) { r.notes[key] = v }

func main() {
	wname := flag.String("workload", "", "workload: fit-grid | fit-consensus | serve-stream")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	clientMode := flag.Bool("client", false, "run as the load-generator process (segments on stdin)")
	flag.Parse()
	if *clientMode {
		if err := clientMain(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench client:", err)
			os.Exit(1)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *wname {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload fit-grid|fit-consensus|serve-stream, --seconds ≥ 1, --trace 0|1")
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &run{
		w: *w, seed: *seed, seconds: float64(*seconds), traced: *traceFlag == 1, dir: dir,
		metrics: map[string]metric{}, notes: map[string]any{},
	}
	heap := startHeapSampler()
	err = r.execute()
	heap.stop()
	peak, windows := peakHeap(heap.samples, r.heapWins)
	r.set("peak_heap_mb", "MB", peak/(1<<20), windows)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := r.print(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if len(r.checks) > 0 {
		for _, c := range r.checks {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", c)
		}
		os.Exit(1)
	}
}

// execute runs the fit phase, then serves the fitted artifacts.
func (r *run) execute() error {
	sets, setupS, err := r.setupData()
	if err != nil {
		return err
	}
	arts, err := r.fitPhase(sets, setupS)
	if err != nil {
		return err
	}
	return r.servePhase(sets, setupS, arts)
}

// The metric names each mode prints, in BENCHMARK.json order.
var endToEnd = []string{
	"setup_s", "fit_s", "edge_f1", "success_frac", "peak_heap_mb", "forecast_p50_ms", "model_lag_s",
}

var perLayer = []string{
	"hbf.read_s", "hbf.read_mb_s",
	"uoi.lambda_grid_s", "uoi.selection_s", "uoi.intersection_s", "uoi.estimation_s",
	"uoi.union_s", "uoi.phase_coverage", "uoi.rank_imbalance", "uoi.serial_fit_s",
	"uoi.grid_speedup", "uoi.shape_bit_mismatches",
	"kron.assembly_s",
	"admm.iters", "admm.solves", "admm.chol_solves", "admm.factorizations",
	"mat.gram_gflops", "mat.gram_flop_per_byte",
	"mpi.collective_calls", "mpi.collective_bytes", "mpi.onesided_calls",
	"mpi.onesided_bytes", "mpi.comm_s", "mpi.wait_s",
	"go.alloc_mb_per_fit", "go.gc_pause_ms", "model.encode_s", "trace.overhead_frac",
	// Tail latency and the rate ladder's capacity carry no bound: on a
	// 2-core host shared with other tenants they vary between runs by more
	// than a 25% regression gate (see the report line for every run).
	"forecast_p99_ms", "topk_p99_ms", "ingest_p99_ms", "forecast_max_rps",
	"model.predict_us",
	"serve.batch_size_mean", "serve.overhead_ms", "serve.rejected", "serve.cache_hit_ratio",
	"stream.refit_ms", "stream.refit_iters", "stream.cells_reused_ratio",
	"graph.build_ms", "telemetry.scrape_ms", "telemetry.exposition_kb", "gen.late_ms_max",
}

// print writes the report line and then the result line.
func (r *run) print() error {
	if r.attempted > 0 {
		r.set("success_frac", "ratio", float64(r.attempted-r.failed)/float64(r.attempted), r.attempted)
	}
	names := endToEnd
	if r.traced {
		names = perLayer
	}
	out := map[string]metric{}
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s was not measured", n)
		}
		out[n] = metric{Value: m.Value, Unit: m.Unit}
	}
	report := map[string]any{
		"env":      envStamp(r.seed),
		"workload": r.w.name,
		"traced":   r.traced,
		"metrics":  r.metrics,
		"ladder":   r.ladder,
		"checks":   r.checks,
		"notes":    r.notes,
	}
	rep, err := json.Marshal(report)
	if err != nil {
		return err
	}
	res, err := json.Marshal(map[string]any{
		"correct":   len(r.checks) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(rep))
	fmt.Println(string(res))
	return nil
}

// envStamp records where a result was measured.
func envStamp(seed uint64) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"seed":       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// heapSampler records the live heap (bytes marked live at the end of a GC
// cycle) through the run. Live heap, unlike heap in use, does not depend on
// how far the collector lets garbage pile up.
type heapSampler struct {
	stopc   chan struct{}
	done    chan struct{}
	samples []heapSample // readable once stop has returned
}

type heapSample struct {
	at   time.Time
	live float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				h.samples = append(h.samples, heapSample{time.Now(), float64(s[0].Value.Uint64())})
			}
			select {
			case <-h.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling.
func (h *heapSampler) stop() {
	close(h.stopc)
	<-h.done
}

// heapWindow is one operation of a phase, or one second of the serve
// phase, whose peak live heap counts towards peak_heap_mb.
type heapWindow struct {
	phase    string
	from, to time.Time
}

// peakHeap returns the peak live heap of a typical window of the hungriest
// phase: the median over each phase's windows of the window's largest
// sample, and the largest of those medians, with the number of windows that
// held a sample. The single largest sample of a run depends on whether a
// collection happened to end at the top of some transient; the median over
// many windows does not.
func peakHeap(samples []heapSample, wins []heapWindow) (float64, int) {
	peaks := map[string][]float64{}
	var phases []string
	n := 0
	for _, w := range wins {
		hi, ok := 0.0, false
		for _, s := range samples {
			if !s.at.Before(w.from) && !s.at.After(w.to) {
				hi, ok = math.Max(hi, s.live), true
			}
		}
		if !ok {
			continue
		}
		if _, seen := peaks[w.phase]; !seen {
			phases = append(phases, w.phase)
		}
		peaks[w.phase] = append(peaks[w.phase], hi)
		n++
	}
	best := math.NaN()
	for _, ph := range phases {
		if m := median(peaks[ph]); math.IsNaN(best) || m > best {
			best = m
		}
	}
	return best, n
}

// medianOf returns the median of the values f picks from xs.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	return median(v)
}

// sortedKeys returns m's keys in order (for deterministic iteration).
func sortedKeys[V any](m map[int]V) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
