package uoi

import (
	"fmt"
	"math"
	"time"

	"uoivar/internal/admm"
	"uoivar/internal/mat"
	"uoivar/internal/metrics"
	"uoivar/internal/resample"
	"uoivar/internal/trace"
	"uoivar/internal/varsim"
)

// This file holds the per-bootstrap *cell* computations of UoI_LASSO and
// UoI_VAR: the bodies of one selection bootstrap (fit the λ path, report
// per-(λ, coefficient) support indicators) and one estimation bootstrap
// (fit OLS on every candidate support, report the held-out winner). Each
// cell is a pure function of (data, root seed, cell index) — independent of
// worker counts, rank counts, and every other cell — which is what makes
// UoI embarrassingly parallel and, in checkpointed execution, independently
// resumable: a checkpoint is just the union of completed cells.
//
// The cell scheduler (sched.go) runs these bodies for every serial, grid
// and checkpointed fit, so a resumed cell reproduces the original bit for
// bit.

// lassoSelCell runs selection bootstrap k of UoI_LASSO over the contiguous
// λ block [jLo, jHi): resample, factorize once, sweep the block with warm
// starts, and return the support indicators flattened as
// sup[(j−jLo)·p + i]. A serial fit sweeps the whole path (pipe == nil); a
// grid column takes the (z, u) pair the serial sweep would carry into jLo
// from pipe and forwards its last pair, so every solve sees the inputs the
// serial sweep would give it and grid supports are bit-identical to
// serial by construction.
func lassoSelCell(x *mat.Dense, y []float64, root *resample.RNG, k int, lambdas []float64, jLo, jHi int, pipe *lamPipe, c *LassoConfig, kw int, tr *trace.Tracer) (sup []bool, fits, iters int, err error) {
	n, p := x.Rows, x.Cols
	rng := root.Derive(uint64(k) + 1)
	idx := resample.Bootstrap(rng, n)
	xb := x.SelectRows(idx)
	yb := selectVec(y, idx)
	var f *admm.Factorization
	if c.L2 > 0 {
		f, err = admm.NewFactorizationElasticWorkers(mat.AtAWorkers(xb, kw), c.ADMM.Rho, c.L2, kw)
		if err == nil {
			f.SetRHS(mat.AtVecWorkers(xb, yb, kw))
		}
	} else {
		f, err = admm.NewFactorizationWorkers(xb, yb, c.ADMM.Rho, kw)
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("uoi: selection bootstrap %d: %w", k, err)
	}
	tr.Add("admm/factorizations", 1)
	sup = make([]bool, (jHi-jLo)*p)
	// Warm-start each λ from its neighbor's (z, u) pair — carrying only z
	// would restart the dual at zero every step and forfeit most of the
	// saved iterations (Boyd §4.3's standard path warm start).
	warmZ, warmU := pipe.warm(0)
	for j := jLo; j < jHi; j++ {
		opts := c.ADMM
		opts.WarmZ, opts.WarmU = warmZ, warmU
		r := f.Solve(lambdas[j], &opts)
		warmZ, warmU = r.Beta, r.U
		fits++
		iters += r.Iters
		row := sup[(j-jLo)*p : (j-jLo+1)*p]
		for i, v := range r.Beta {
			if v > c.SupportTol || v < -c.SupportTol {
				row[i] = true
			}
		}
	}
	pipe.emit(0, warmZ, warmU)
	return sup, fits, iters, nil
}

// lassoEstCell runs estimation bootstrap k of UoI_LASSO: resample a
// train/evaluation split, fit OLS on every distinct candidate support, and
// return the estimate minimizing held-out loss (all zeros when the
// candidate family is empty).
func lassoEstCell(x *mat.Dense, y []float64, root *resample.RNG, k int, distinct [][]int, c *LassoConfig, kw int) (beta []float64, fits int) {
	n, p := x.Rows, x.Cols
	rng := root.Derive(1_000_000 + uint64(k))
	trainIdx, evalIdx := resample.TrainEvalSplit(rng, n, c.TrainFrac)
	xt := x.SelectRows(trainIdx)
	yt := selectVec(y, trainIdx)
	xe := x.SelectRows(evalIdx)
	ye := selectVec(y, evalIdx)

	bestLoss := math.Inf(1)
	var bestBeta []float64
	for _, s := range distinct {
		b := admm.OLSOnSupportWorkers(xt, yt, s, kw)
		fits++
		loss := metrics.PredictionLoss(xe, ye, b)
		// Skip non-finite losses: a NaN in the first slot would make every
		// later `loss < bestLoss` false and win silently.
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			continue
		}
		if bestBeta == nil || loss < bestLoss {
			bestLoss = loss
			bestBeta = b
		}
	}
	// All candidates non-finite (or none): fall back to the null model.
	if bestBeta == nil {
		bestBeta = make([]float64, p)
	}
	return bestBeta, fits
}

// varSelTargets derives selection bootstrap k's design-row targets (window
// row indices in [d, d+m)): window-relative moving blocks by default, or
// grid blocks at absolute stream coordinates when c.Anchored. Shared by the
// cell body and the cell-cache key so the two can never disagree.
func varSelTargets(root *resample.RNG, k, m, blockLen int, c *VARConfig) []int {
	rng := root.Derive(uint64(k) + 1)
	var idx []int
	if c.Anchored {
		// Design row t sits at absolute stream row Anchor + Order + t.
		idx = resample.AnchoredBlockBootstrap(rng, c.Anchor+int64(c.Order), m, blockLen)
	} else {
		idx = resample.MovingBlockBootstrap(rng, m, blockLen)
	}
	targets := make([]int, len(idx))
	for i, v := range idx {
		targets[i] = c.Order + v
	}
	return targets
}

// varSelCell runs selection bootstrap k of UoI_VAR over the λ block
// [jLo, jHi): block-bootstrap target rows, assemble the design, factorize
// once (shared across equations and the λ path), and return the support
// indicators flattened as sup[(j−jLo)·betaLen + eq·rowsB + i]. The
// warm-start chain is per equation, so the grid handoff is too: chain eq
// enters from pipe.warm(eq) and leaves through pipe.emit(eq) (see
// lassoSelCell). spPhase receives the kron_assembly child span.
func varSelCell(series *mat.Dense, root *resample.RNG, k, m, blockLen int, lambdas []float64, jLo, jHi int, pipe *lamPipe, c *VARConfig, kw int, tr *trace.Tracer, spPhase trace.Span) (sup []bool, fits, iters int, kron time.Duration, err error) {
	d := c.Order
	p := series.Cols
	targets := varSelTargets(root, k, m, blockLen, c)
	t0 := time.Now()
	spK := spPhase.Child("kron_assembly")
	des := varsim.NewDesignFromRows(series, d, !c.NoIntercept, targets)
	spK.End()
	kron = time.Since(t0)
	rowsB := des.X.Cols

	// One factorization shared across all p equations and the λ path — the
	// block-diagonal Gram of (I ⊗ X_T) is I ⊗ (X_TᵀX_T).
	var f *admm.Factorization
	if c.L2 > 0 {
		f, err = admm.NewFactorizationElasticWorkers(mat.AtAWorkers(des.X, kw), c.ADMM.Rho, c.L2, kw)
	} else {
		f, err = admm.NewFactorizationGramWorkers(mat.AtAWorkers(des.X, kw), c.ADMM.Rho, kw)
	}
	if err != nil {
		return nil, 0, 0, kron, fmt.Errorf("uoi: VAR selection bootstrap %d: %w", k, err)
	}
	tr.Add("admm/factorizations", 1)
	betaLen := rowsB * p
	sup = make([]bool, (jHi-jLo)*betaLen)
	yCol := make([]float64, des.X.Rows)
	for eq := 0; eq < p; eq++ {
		des.Y.Col(eq, yCol)
		aty := mat.AtVecWorkers(des.X, yCol, kw)
		// The λ grid is descending (λ_max first), where the cold solution
		// starts near zero; carry both halves of the warm start along the
		// path — z alone restarts the dual from zero at every λ.
		warmZ, warmU := pipe.warm(eq)
		for j := jLo; j < jHi; j++ {
			opts := c.ADMM
			opts.WarmZ, opts.WarmU = warmZ, warmU
			r := f.SolveRHS(aty, lambdas[j], &opts)
			warmZ, warmU = r.Beta, r.U
			fits++
			iters += r.Iters
			row := sup[(j-jLo)*betaLen+eq*rowsB : (j-jLo)*betaLen+(eq+1)*rowsB]
			for i, v := range r.Beta {
				if v > c.SupportTol || v < -c.SupportTol {
					row[i] = true
				}
			}
		}
		pipe.emit(eq, warmZ, warmU)
	}
	return sup, fits, iters, kron, nil
}

// varEstCell runs estimation bootstrap k of UoI_VAR: block train/eval
// split, per-equation OLS on every distinct vec support, and the held-out
// winner (all zeros when the candidate family is empty).
func varEstCell(series *mat.Dense, root *resample.RNG, k, m, blockLen, betaLen int, distinct [][]int, c *VARConfig, kw int, spPhase trace.Span) (beta []float64, fits int, kron time.Duration) {
	d := c.Order
	rng := root.Derive(1_000_000 + uint64(k))
	trainIdx, evalIdx := resample.BlockTrainEvalSplit(rng, m, blockLen, c.TrainFrac)
	toTargets := func(idx []int) []int {
		out := make([]int, len(idx))
		for i, v := range idx {
			out[i] = d + v
		}
		return out
	}
	t0 := time.Now()
	spK := spPhase.Child("kron_assembly")
	trainDes := varsim.NewDesignFromRows(series, d, !c.NoIntercept, toTargets(trainIdx))
	evalDes := varsim.NewDesignFromRows(series, d, !c.NoIntercept, toTargets(evalIdx))
	spK.End()
	kron = time.Since(t0)

	bestLoss := math.Inf(1)
	var bestBeta []float64
	for _, s := range distinct {
		b := olsOnVecSupport(trainDes, s, kw)
		fits++
		loss := vecLoss(evalDes, b)
		// Non-finite losses never win (see lassoEstCell).
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			continue
		}
		if bestBeta == nil || loss < bestLoss {
			bestLoss = loss
			bestBeta = b
		}
	}
	// All candidates non-finite (or none): fall back to the null model.
	if bestBeta == nil {
		bestBeta = make([]float64, betaLen)
	}
	return bestBeta, fits, kron
}
