package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"uoivar/internal/datagen"
	"uoivar/internal/hbf"
	"uoivar/internal/mat"
	"uoivar/internal/model"
	"uoivar/internal/mpi"
	"uoivar/internal/trace"
	"uoivar/internal/uoi"
)

// ranks is the in-process rank count of the distributed fit engines.
const ranks = 2

// datasets is how many network instances a run fits, each generated from
// the workload seed. Fit cost depends on the data; cycling through several
// instances keeps one unlucky draw from moving a run's median. It is odd so
// that a traced run's alternation reaches every instance with both kinds
// of fit.
const datasets = 5

// dataset is one workload instance: the generating network, the full
// series (fitted rows first, then the rows the serve phase ingests) and
// the .hbf file holding the fitted rows.
type dataset struct {
	truth  *mat.Dense // generating lag matrix, rows = targets
	series *mat.Dense
	path   string
}

// setupData generates the instances and writes each one's fitted rows to
// an .hbf file. It returns them with the median set-up time of one.
func (r *run) setupData() ([]*dataset, float64, error) {
	extra := int(ingestRate*r.seconds*(1-r.w.fitShare)) + 1024
	var times []float64
	var sets []*dataset
	for k := 0; k < datasets; k++ {
		t0 := time.Now()
		sv := datagen.MakeSparseVAR(r.seed*datasets+uint64(k), r.w.p, r.w.n+extra, nil)
		path := filepath.Join(r.dir, fmt.Sprintf("series%d.hbf", k))
		if _, err := datagen.WriteSeriesHBF(path, sv.Series.SubRows(0, r.w.n), hbf.CreateOptions{}); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		sets = append(sets, &dataset{truth: sv.Model.A[0], series: sv.Series, path: path})
	}
	return sets, median(times), nil
}

// fitOp is one read → fit → encode operation.
type fitOp struct {
	set                          int // dataset index
	readS, fitS, encodeS, totalS float64
	readBytes                    int64
	res                          *uoi.VARResult
	art                          *model.Artifact
	ranks                        []trace.RankPerf // traced fits only
	comm                         []mpi.Stats
	allocMB, gcPauseMs           float64
}

// fitConfig is the fit every engine runs: UoI_VAR order 1 with the default
// B1/B2/Q, seeded from the workload seed.
func (r *run) fitConfig() uoi.VARConfig {
	return uoi.VARConfig{Order: 1, Seed: r.seed}
}

// fitOnce reads the series file, fits it with the workload's engine and
// encodes the artifact.
func (r *run) fitOnce(path string, traced bool) (*fitOp, error) {
	op := &fitOp{}
	var ms0 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	t0 := time.Now()
	f, err := hbf.Open(path)
	if err != nil {
		return nil, err
	}
	all, err := f.ReadAll()
	f.Close()
	if err != nil {
		return nil, err
	}
	series := mat.NewDenseData(f.Meta.Rows, f.Meta.Cols, all)
	op.readBytes = f.Meta.Bytes()
	t1 := time.Now()
	cfg := r.fitConfig()
	switch r.w.engine {
	case "serial":
		var tr *trace.Tracer
		if traced {
			tr = trace.New()
		}
		c := cfg
		c.Trace = tr
		op.res, err = uoi.VAR(series, &c)
		if traced {
			rp := tr.RankPerf(0)
			rp.FinalizeCompute()
			op.ranks = []trace.RankPerf{rp}
		}
	default:
		op.ranks = make([]trace.RankPerf, ranks)
		op.comm = make([]mpi.Stats, ranks)
		results := make([]*uoi.VARResult, ranks)
		err = mpi.Run(ranks, func(comm *mpi.Comm) error {
			var tr *trace.Tracer
			if traced {
				tr = trace.New()
			}
			c := cfg
			c.Trace = tr
			var res *uoi.VARResult
			var err error
			if r.w.engine == "grid" {
				res, err = uoi.VARGrid(comm, series, &c, uoi.GridOptions{Shape: uoi.GridShape{PB: ranks, PL: 1}})
			} else {
				res, err = uoi.VARDistributed(comm, series, &c, &uoi.VARDistOptions{NReaders: ranks})
			}
			if err != nil {
				return err
			}
			if traced {
				op.ranks[comm.Rank()] = uoi.RankPerf(comm, tr)
			}
			op.comm[comm.Rank()] = comm.LocalStats()
			results[comm.Rank()] = res
			return nil
		})
		op.res = results[0]
		for i := 1; err == nil && i < ranks; i++ {
			if coefHash(results[i].Beta) != coefHash(op.res.Beta) {
				r.fail("%s: rank %d returned different coefficients", r.w.engine, i)
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s fit: %w", r.w.engine, err)
	}
	t2 := time.Now()
	op.art = model.FromVAR(op.res, &cfg)
	if _, err := op.art.Encode(); err != nil {
		return nil, err
	}
	t3 := time.Now()
	op.readS, op.fitS, op.encodeS, op.totalS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds(), t3.Sub(t0).Seconds()
	if traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		op.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		op.gcPauseMs = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	}
	return op, nil
}

// fitPhase fits the instances in turn for the workload's share of the run
// (a traced run alternates rounds of untraced and traced fits), checks
// every fit against the first fit of its instance and against the
// generating network, and returns each instance's artifact for the serve
// phase.
func (r *run) fitPhase(sets []*dataset, setupS float64) ([]*model.Artifact, error) {
	deadline := time.Now().Add(time.Duration(r.seconds * r.w.fitShare * float64(time.Second)))
	var plain, traced []*fitOp
	first := make([]*fitOp, len(sets))
	for i := 0; ; i++ {
		k := i % len(sets)
		tr := r.traced && (i/len(sets))%2 == 1
		t0 := time.Now()
		op, err := r.fitOnce(sets[k].path, tr)
		r.count(1, 0)
		if err != nil {
			return nil, err
		}
		op.set = k
		if tr {
			traced = append(traced, op)
		} else {
			plain = append(plain, op)
			r.heapWins = append(r.heapWins, heapWindow{"fit", t0, time.Now()})
		}
		if first[k] == nil {
			first[k] = op
		} else if coefHash(op.res.Beta) != coefHash(first[k].res.Beta) {
			r.fail("dataset %d: fit %d differs in bits from its first fit", k, i)
		}
		if time.Now().After(deadline) && len(plain) >= len(sets) && (!r.traced || len(traced) >= len(sets)) {
			break
		}
	}
	var f1s []float64
	for k, op := range first {
		f1 := edgeF1(sets[k].truth, op.res.A[0], edgeThreshold)
		if f1 < edgeF1Floor {
			r.fail("dataset %d: edge F1 %.3f below floor %.2f", k, f1, edgeF1Floor)
		}
		f1s = append(f1s, f1)
	}
	r.count(len(sets), 0)
	r.set("setup_s", "s", setupS, len(sets))
	r.set("fit_s", "s", medianOf(plain, func(o *fitOp) float64 { return o.totalS }), len(plain))
	byData := make([][]float64, len(sets))
	for _, o := range plain {
		byData[o.set] = append(byData[o.set], o.totalS)
	}
	r.note("fit_s_by_dataset", byData)
	r.set("edge_f1", "ratio", median(f1s), len(f1s))

	serialS, err := r.checkAgainstSerial(sets[0], first[0])
	if err != nil {
		return nil, err
	}
	if r.traced {
		r.fitLayers(plain, traced, serialS)
	}
	arts := make([]*model.Artifact, len(first))
	for k, op := range first {
		arts[k] = op.art
	}
	return arts, nil
}

// edgeF1Floor is the lowest edge F1 a fit may reach before the run fails.
const edgeF1Floor = 0.6

// checkAgainstSerial refits a fit-grid series with serial uoi.VAR (the
// 1x1 shape) and checks that the 2x1 grid fit has the same supports and
// coefficients within 1e-12. The count of coefficients whose bits differ
// is reported, not hidden: bit identity across grid shapes is the
// library's promise. Other workloads report zero mismatches.
func (r *run) checkAgainstSerial(d *dataset, grid *fitOp) (serialS float64, err error) {
	r.set("uoi.shape_bit_mismatches", "count", 0, 0)
	if r.w.engine != "grid" {
		return 0, nil
	}
	series := d.series.SubRows(0, r.w.n)
	cfg := r.fitConfig()
	t0 := time.Now()
	ref, err := uoi.VAR(series, &cfg)
	if err != nil {
		return 0, fmt.Errorf("serial reference fit: %w", err)
	}
	serialS = time.Since(t0).Seconds()
	r.count(1, 0)
	n, maxAbs := bitMismatches(grid.res.Beta, ref.Beta)
	r.set("uoi.shape_bit_mismatches", "count", float64(n), len(ref.Beta))
	r.note("shape_bit_mismatches", map[string]any{"differ": n, "of": len(ref.Beta), "max_abs_diff": maxAbs})
	if !sameSupports(grid.res.Supports, ref.Supports) || !sameSupport(grid.res.Beta, ref.Beta) {
		r.fail("grid 2x1 supports differ from the serial 1x1 fit")
	}
	if maxAbs > 1e-12 {
		r.fail("grid 2x1 coefficients differ from the serial 1x1 fit by %g > 1e-12", maxAbs)
	}
	return serialS, nil
}

func sameSupports(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func sameSupport(a, b []float64) bool {
	for i := range a {
		if (a[i] == 0) != (b[i] == 0) {
			return false
		}
	}
	return true
}

// fitLayers reports the fit-side per-layer metrics from the traced fits.
// Phase times are the slowest rank's; counts are summed over ranks; mpi
// times are the mean over ranks.
func (r *run) fitLayers(plain, traced []*fitOp, serialS float64) {
	n := len(traced)
	med := func(f func(*fitOp) float64) float64 { return medianOf(traced, f) }
	r.set("hbf.read_s", "s", med(func(o *fitOp) float64 { return o.readS }), n)
	r.set("hbf.read_mb_s", "MB/s", med(func(o *fitOp) float64 { return float64(o.readBytes) / (1 << 20) / o.readS }), n)
	phase := func(name string) float64 {
		return med(func(o *fitOp) float64 {
			return maxRanks(o.ranks, func(rp trace.RankPerf) float64 { return phaseSum(rp, name) })
		})
	}
	for _, p := range []string{"lambda_grid", "selection", "intersection", "estimation", "union"} {
		r.set("uoi."+p+"_s", "s", phase(p), n)
	}
	r.set("kron.assembly_s", "s", phase("kron_assembly"), n)
	r.set("uoi.phase_coverage", "ratio", med(func(o *fitOp) float64 {
		top := maxRanks(o.ranks, func(rp trace.RankPerf) float64 { return rp.TopLevelSeconds() })
		return (o.readS + top + o.encodeS) / o.totalS
	}), n)
	r.set("uoi.rank_imbalance", "ratio", med(func(o *fitOp) float64 {
		hi, sum := 0.0, 0.0
		for _, rp := range o.ranks {
			hi = math.Max(hi, rp.ComputeSeconds)
			sum += rp.ComputeSeconds
		}
		return hi / (sum / float64(len(o.ranks)))
	}), n)
	fitOnly := medianOf(plain, func(o *fitOp) float64 { return o.fitS })
	if r.w.engine == "serial" {
		serialS = fitOnly
	}
	r.set("uoi.serial_fit_s", "s", serialS, 1)
	r.set("uoi.grid_speedup", "ratio", serialS/fitOnly, len(plain))
	for _, c := range []string{"iters", "solves", "chol_solves", "factorizations"} {
		name := "admm/" + c
		r.set("admm."+c, "count", med(func(o *fitOp) float64 {
			s := 0.0
			for _, rp := range o.ranks {
				s += float64(rp.Counters[name])
			}
			return s
		}), n)
	}
	comm := func(f func(s mpi.Stats) float64, combine func(a, b float64) float64) float64 {
		return med(func(o *fitOp) float64 {
			v := 0.0
			for _, s := range o.comm {
				v = combine(v, f(s))
			}
			return v
		})
	}
	sum := func(a, b float64) float64 { return a + b }
	r.set("mpi.collective_calls", "count", comm(func(s mpi.Stats) float64 { return float64(s.Calls[mpi.CatCollective]) }, sum), n)
	r.set("mpi.collective_bytes", "B", comm(func(s mpi.Stats) float64 { return float64(s.Bytes[mpi.CatCollective]) }, sum), n)
	r.set("mpi.onesided_calls", "count", comm(func(s mpi.Stats) float64 { return float64(s.Calls[mpi.CatOneSided]) }, sum), n)
	r.set("mpi.onesided_bytes", "B", comm(func(s mpi.Stats) float64 { return float64(s.Bytes[mpi.CatOneSided]) }, sum), n)
	// Time in mpi calls, and the part of it spent blocked, per rank.
	perRank := func(v float64) float64 { return v / ranks }
	r.set("mpi.comm_s", "s", perRank(comm(func(s mpi.Stats) float64 { _, _, d := s.Total(); return d.Seconds() }, sum)), n)
	r.set("mpi.wait_s", "s", perRank(comm(func(s mpi.Stats) float64 { return s.TotalWait().Seconds() }, sum)), n)
	r.set("go.alloc_mb_per_fit", "MB", med(func(o *fitOp) float64 { return o.allocMB }), n)
	r.set("go.gc_pause_ms", "ms", med(func(o *fitOp) float64 { return o.gcPauseMs }), n)
	r.set("model.encode_s", "s", med(func(o *fitOp) float64 { return o.encodeS }), n)
	// Overhead per instance, since fit cost differs between instances.
	var ratios []float64
	for k := 0; k < datasets; k++ {
		of := func(ops []*fitOp) []float64 {
			var v []float64
			for _, o := range ops {
				if o.set == k {
					v = append(v, o.totalS)
				}
			}
			return v
		}
		ratios = append(ratios, median(of(traced))/median(of(plain)))
	}
	r.set("trace.overhead_frac", "ratio", median(ratios)-1, n)
	gflops, perByte := gramRate(traced[0].res, r.w.n)
	r.set("mat.gram_gflops", "GFLOP/s", gflops, 1)
	r.set("mat.gram_flop_per_byte", "FLOP/B", perByte, 1)
}

// phaseSum is a rank's time in every span named name or ending in /name.
func phaseSum(rp trace.RankPerf, name string) float64 {
	s := 0.0
	for _, p := range rp.Phases {
		if p.Name == name || strings.HasSuffix(p.Name, "/"+name) {
			s += p.Seconds
		}
	}
	return s
}

func maxRanks(rps []trace.RankPerf, f func(trace.RankPerf) float64) float64 {
	v := 0.0
	for _, rp := range rps {
		v = math.Max(v, f(rp))
	}
	return v
}

// gramRate times mat.AtAWorkers and mat.NewCholeskyBlocked at the fit's
// design shape (rows × (p·order + 1) columns) with the default worker
// budget, and returns the achieved GFLOP/s and the computed flops per byte
// (bytes counted once from the operand and result sizes, ignoring caches).
func gramRate(res *uoi.VARResult, rows int) (gflops, flopPerByte float64) {
	p := res.A[0].Rows
	k := p + 1
	m := rows - 1
	x := mat.NewDense(m, k)
	for i := range x.Data {
		x.Data[i] = math.Sin(float64(i)) // dense, deterministic
	}
	// Upper-triangle Gram: one multiply-add per (row, i ≤ j) pair; blocked
	// Cholesky: k³/3 flops.
	flops := float64(m)*float64(k)*float64(k+1) + float64(k)*float64(k)*float64(k)/3
	bytes := 8 * (float64(m)*float64(k) + 2*float64(k)*float64(k))
	reps := 0
	t0 := time.Now()
	for time.Since(t0) < 200*time.Millisecond {
		g := mat.AtAWorkers(x, 0)
		for i := 0; i < k; i++ {
			g.Set(i, i, g.At(i, i)+1) // keep it positive definite
		}
		if _, err := mat.NewCholeskyBlocked(g); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: gram timing:", err)
			return math.NaN(), math.NaN()
		}
		reps++
	}
	return flops * float64(reps) / time.Since(t0).Seconds() / 1e9, flops / bytes
}
