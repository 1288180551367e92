package uoi

import (
	"fmt"
	"math"
	"time"

	"uoivar/internal/admm"
	"uoivar/internal/checkpoint"
	"uoivar/internal/mat"
	"uoivar/internal/mpi"
	"uoivar/internal/resample"
	"uoivar/internal/trace"
	"uoivar/internal/varsim"
)

// VARConfig configures UoI_VAR (paper Algorithm 2).
type VARConfig struct {
	// Order is the autoregressive order d (default 1).
	Order int
	// NoIntercept drops the μ term; by default the design carries an
	// intercept, matching Algorithm 2's partition into (A_1..A_d) and μ.
	NoIntercept bool
	// BlockLen is the block-bootstrap block length; 0 selects ⌈√m⌉ where m
	// is the design row count, a standard rate-optimal choice.
	BlockLen int
	// B1, B2, Lambdas, Q, LambdaRatio, Seed, TrainFrac, SupportTol, ADMM:
	// as in LassoConfig.
	B1, B2      int
	Lambdas     []float64 // explicit λ grid (overrides Q/LambdaRatio)
	Q           int       // λ-grid size when Lambdas is nil
	LambdaRatio float64   // λ_min/λ_max of the generated grid
	Seed        uint64    // root RNG seed; fixes every bootstrap
	TrainFrac   float64   // estimation train/eval split fraction
	SupportTol  float64   // |β| threshold for support membership
	// SelectionFrac and MedianUnion as in LassoConfig: soft intersection
	// threshold and robust union.
	SelectionFrac float64
	MedianUnion   bool // median instead of mean in the estimation union
	// L2 adds an elastic-net ℓ2 penalty to every selection solve
	// (UoI_ElasticNet for VAR); estimation remains OLS on the supports.
	L2 float64
	// Workers runs bootstraps concurrently (in-process P_B parallelism);
	// results are identical at any worker count. 0/1 = sequential.
	Workers int
	// KernelWorkers bounds per-kernel-call goroutine parallelism, exactly as
	// LassoConfig.KernelWorkers: 0 derives GOMAXPROCS/streams, negative
	// forces the full-machine default.
	KernelWorkers int
	// Anchored switches the selection bootstraps from window-relative
	// moving blocks to blocks anchored at ABSOLUTE stream coordinates
	// (resample.AnchoredBlockBootstrap): the series is declared to start at
	// stream offset Anchor, and bootstrap blocks align to a fixed grid of
	// BlockLen-length blocks in stream coordinates. Two fits over windows
	// that cover the same grid blocks then draw the same absolute rows, so
	// their selection cells key identically in the CellCache — this is what
	// lets a streaming refit after a small window slide reuse its cells.
	// (Anchored, Anchor) is part of the fit's identity: the default (false)
	// reproduces prior releases bit for bit.
	Anchored bool
	// Anchor is the absolute stream offset of series row 0 (only read when
	// Anchored is set; the streaming engine passes Buffer.Total−Buffer.Len).
	Anchor int64
	// Cells, when non-nil, memoizes completed bootstrap cells across fits
	// keyed by the exact bytes that determine each cell's output (see
	// CellCache). Purely an execution hint: hits skip recomputation but
	// never change results. Diagnostics (LassoFits, ADMMIters) count only
	// the work actually performed.
	Cells CellCache
	// Trace, when non-nil, records per-phase spans and solver counters for
	// this fit (see LassoConfig.Trace). VAR adds kron_assembly spans for the
	// design-construction work.
	Trace *trace.Tracer
	// Checkpoint, when non-nil, runs the fit in checkpointed mode (see
	// CheckpointConfig): completed cells are durable and a crashed fit
	// resumes bit-identically, serially or on any grid shape.
	Checkpoint *CheckpointConfig
	// ADMM tunes the inner solver, as in LassoConfig.
	ADMM admm.Options
}

func (c *VARConfig) defaults() VARConfig {
	out := VARConfig{Order: 1, B1: 20, B2: 10, Q: 8, LambdaRatio: 1e-3, TrainFrac: 0.8, SupportTol: 1e-7}
	if c == nil {
		return out
	}
	o := *c
	if o.Order <= 0 {
		o.Order = out.Order
	}
	if o.B1 <= 0 {
		o.B1 = out.B1
	}
	if o.B2 <= 0 {
		o.B2 = out.B2
	}
	if o.Q <= 0 {
		o.Q = out.Q
	}
	if o.LambdaRatio <= 0 || o.LambdaRatio >= 1 {
		o.LambdaRatio = out.LambdaRatio
	}
	if o.TrainFrac <= 0 || o.TrainFrac >= 1 {
		o.TrainFrac = out.TrainFrac
	}
	if o.SupportTol <= 0 {
		o.SupportTol = out.SupportTol
	}
	if o.SelectionFrac <= 0 || o.SelectionFrac > 1 {
		o.SelectionFrac = 1
	}
	if o.ADMM.Trace == nil {
		o.ADMM.Trace = o.Trace
	}
	return o
}

// VARResult is a fitted UoI_VAR model.
type VARResult struct {
	// Beta is the averaged vectorized estimate vec(B) (Algorithm 2 line 30).
	Beta []float64
	// A holds the partitioned lag matrices A_1..A_d and Mu the intercept
	// (Algorithm 2 lines 31–32).
	A  []*mat.Dense
	Mu []float64 // intercept vector μ
	// Lambdas and Supports mirror the UoI_LASSO result (supports index into
	// vec(B)).
	Lambdas  []float64
	Supports [][]int // per-λ support indices into vec(B)
	// Diag carries phase timings; KronTime aggregates the vectorization /
	// Kronecker-construction work (design construction per bootstrap),
	// the paper's "distribution" phase analogue in the serial code.
	Diag     Diagnostics
	KronTime time.Duration // total design-assembly time (see Diag comment)
}

// VAR runs serial UoI_VAR on an N×p series: the cell scheduler on the
// Workers goroutine pool, checkpointed when cfg.Checkpoint is set.
func VAR(series *mat.Dense, cfg *VARConfig) (*VARResult, error) {
	return varFit(nil, series, cfg, GridOptions{})
}

// VARGrid runs UoI_VAR over a PB × PL process grid — the VAR analogue of
// LassoGrid, with a per-equation (z, u) pipeline handoff across columns
// (the VAR warm-start chain is per equation). Every rank passes the
// identical replicated series and returns the identical VARResult,
// bit-for-bit equal to serial VAR at any grid shape. cfg.Checkpoint is
// supported as in LassoGrid; the cell cache is not.
func VARGrid(comm *mpi.Comm, series *mat.Dense, cfg *VARConfig, opt GridOptions) (*VARResult, error) {
	if err := checkGrid(comm, opt.Shape); err != nil {
		return nil, err
	}
	if cfg != nil && cfg.Cells != nil {
		return nil, fmt.Errorf("uoi: VARGrid does not support the cell cache")
	}
	return varFit(comm, series, cfg, opt)
}

// varFit supplies UoI_VAR's cell bodies to the scheduler: serial when comm
// is nil, else on the opt.Shape grid.
func varFit(comm *mpi.Comm, series *mat.Dense, cfg *VARConfig, opt GridOptions) (*VARResult, error) {
	c := cfg.defaults()
	nTotal, p := series.Rows, series.Cols
	d := c.Order
	if nTotal <= d+4 {
		return nil, fmt.Errorf("uoi: series of %d samples too short for order %d", nTotal, d)
	}
	m := nTotal - d
	blockLen := c.BlockLen
	if blockLen <= 0 {
		blockLen = int(math.Ceil(math.Sqrt(float64(m))))
	}

	tr := c.Trace
	kw := kernelBudget(c.KernelWorkers, streams(comm, c.Workers))
	tr.SetMax("mat/kernel_workers", int64(kw))

	tKron := time.Now()
	spKron := tr.Start("kron_assembly")
	full := varsim.NewDesign(series, d, !c.NoIntercept)
	spKron.End()
	kronTime := time.Since(tKron)
	rowsB := full.X.Cols // q: columns per equation (dp, +1 with intercept)
	betaLen := rowsB * p

	spGrid := tr.Start("lambda_grid")
	lambdas := c.Lambdas
	if lambdas == nil {
		lambdas = admm.LogSpaceLambdas(vecLambdaMax(full), c.LambdaRatio, c.Q)
	}
	spGrid.End()
	root := resample.NewRNG(c.Seed)
	out, err := runCells(comm, opt, &fitSpec{
		b1: c.B1, b2: c.B2, width: betaLen, subs: p, lambdas: lambdas,
		selFrac: c.SelectionFrac, median: c.MedianUnion,
		workers: c.Workers, tr: tr, ckpt: c.Checkpoint,
		meta: func() checkpoint.Meta {
			return checkpoint.Meta{Kind: checkpoint.KindVAR, Seed: c.Seed, B1: c.B1, B2: c.B2,
				P: betaLen, Q: len(lambdas), Order: d, Intercept: !c.NoIntercept,
				Fingerprint: varFingerprint(series, blockLen, &c)}
		},
		// With a cell cache, a bootstrap whose inputs are bit-unchanged from
		// a previous fit (same touched rows, λ grid) is skipped outright —
		// the streaming refit's "re-run only what changed" path.
		sel: func(k, jLo, jHi int, pipe *lamPipe, sp trace.Span) ([]bool, cellWork, error) {
			var key uint64
			if c.Cells != nil {
				key = selCellKey(series, k, m, blockLen, lambdas, &c)
				if sup, ok := c.Cells.GetSel(key); ok {
					tr.Add("uoi/sel_cells_reused", 1)
					return sup, cellWork{}, nil
				}
			}
			sup, fits, iters, kron, err := varSelCell(series, root, k, m, blockLen, lambdas, jLo, jHi, pipe, &c, kw, tr, sp)
			if err == nil && c.Cells != nil {
				c.Cells.PutSel(key, sup)
			}
			return sup, cellWork{lassoFits: fits, iters: iters, kron: kron}, err
		},
		est: func(k int, distinct [][]int, sp trace.Span) ([]float64, cellWork) {
			var key uint64
			if c.Cells != nil {
				key = estCellKey(series, k, m, blockLen, distinct, &c)
				if beta, ok := c.Cells.GetEst(key); ok {
					tr.Add("uoi/est_cells_reused", 1)
					return beta, cellWork{}
				}
			}
			beta, fits, kron := varEstCell(series, root, k, m, blockLen, betaLen, distinct, &c, kw, sp)
			if c.Cells != nil {
				c.Cells.PutEst(key, beta)
			}
			return beta, cellWork{olsFits: fits, kron: kron}
		},
	})
	if err != nil {
		return nil, err
	}
	res := &VARResult{Beta: out.beta, Lambdas: lambdas, Supports: out.supports, Diag: out.diag, KronTime: kronTime + out.kron}
	res.A, res.Mu = full.PartitionBeta(res.Beta)
	return res, nil
}

// vecLambdaMax is ‖(I⊗X)ᵀ vec(Y)‖∞ = max_j ‖Xᵀ y_j‖∞.
func vecLambdaMax(des *varsim.Design) float64 {
	p := des.P
	yCol := make([]float64, des.X.Rows)
	maxV := 0.0
	for j := 0; j < p; j++ {
		des.Y.Col(j, yCol)
		if v := mat.NormInf(mat.AtVec(des.X, yCol)); v > maxV {
			maxV = v
		}
	}
	if maxV == 0 {
		return 1
	}
	return maxV
}

// olsOnVecSupport fits the support-restricted OLS equation by equation
// (the vec problem is block separable), with the caller's kernel worker
// budget threaded into each per-equation Gram solve.
func olsOnVecSupport(des *varsim.Design, support []int, kernelWorkers int) []float64 {
	p := des.P
	rowsB := des.X.Cols
	beta := make([]float64, rowsB*p)
	// Split the vec support into per-equation supports.
	perEq := make([][]int, p)
	for _, g := range support {
		eq := g / rowsB
		perEq[eq] = append(perEq[eq], g%rowsB)
	}
	yCol := make([]float64, des.X.Rows)
	for eq := 0; eq < p; eq++ {
		if len(perEq[eq]) == 0 {
			continue
		}
		des.Y.Col(eq, yCol)
		sub := admm.OLSOnSupportWorkers(des.X, yCol, perEq[eq], kernelWorkers)
		copy(beta[eq*rowsB:(eq+1)*rowsB], sub)
	}
	return beta
}

// vecLoss is ½‖vec(Y) − (I⊗X)β‖² evaluated blockwise.
func vecLoss(des *varsim.Design, beta []float64) float64 {
	r := des.Residual(beta)
	return 0.5 * mat.Dot(r, r)
}

// Model packages the fitted coefficients as a varsim.Model so the
// forecasting, impulse-response and FEVD helpers apply directly:
//
//	fc := res.Model().Forecast(series, 10)
func (r *VARResult) Model() *varsim.Model {
	return varsim.ModelFromEstimate(r.A, r.Mu)
}
