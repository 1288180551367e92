package uoi

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"uoivar/internal/checkpoint"
	"uoivar/internal/fault"
	"uoivar/internal/mpi"
)

// These chaos cases prove checkpoint/restart end to end: a seeded crash
// kills a checkpointed grid fit at a bootstrap boundary, and the resumed fit — on FEWER ranks than the original —
// produces coefficients bit-identical to an uninterrupted serial run. The
// crash op index positions the failure at different rounds of the cell
// engine, so the sweep covers crashes before the first save, mid-phase,
// and between the selection and estimation phases.

// gridSetupOps is the number of communication ops a grid fit spends on its
// two row/column Splits before the first cell exchange. The crashOp
// subtests below count exchanges after it, so crashOp=1 kills the second
// exchange.
const gridSetupOps = 6

// crashThenResume runs phase 1 (ranks1 ranks, seeded crash) and phase 2
// (ranks2 ranks, no faults, resuming the surviving checkpoint), returning
// the resumed per-rank coefficient vectors. The resumed run also must obey
// the communication-matrix conservation law.
func crashThenResume(t *testing.T, path string, crashRank, crashOp, ranks1, ranks2 int,
	fit func(c *mpi.Comm, ck *CheckpointConfig) ([]float64, error)) [][]float64 {
	t.Helper()

	plan := fault.NewPlan(ranks1, fault.Event{Kind: fault.Crash, Rank: crashRank, Op: crashOp})
	err := runBounded(t, func() error {
		return mpi.RunWithOptions(ranks1, mpi.RunOptions{Fault: plan}, func(c *mpi.Comm) error {
			_, err := fit(c, &CheckpointConfig{Path: path})
			return err
		})
	})
	if err == nil {
		t.Fatalf("crash at op %d did not interrupt the fit", crashOp)
	}
	if !typedOutcome(err) {
		t.Fatalf("crashed run failed untyped: %v", err)
	}

	// Resume whatever survived on fewer ranks. A crash before the first
	// cadenced save legitimately leaves no file — then the "resume" is a
	// fresh checkpointed run, exactly what an operator retrying would get.
	resume := true
	if _, statErr := os.Stat(path); statErr != nil {
		resume = false
	}
	betas := make([][]float64, ranks2)
	var flows []mpi.PairFlow
	err = runBounded(t, func() error {
		return mpi.Run(ranks2, func(c *mpi.Comm) error {
			beta, err := fit(c, &CheckpointConfig{Path: path, Resume: resume})
			if err != nil {
				return err
			}
			betas[c.Rank()] = beta
			if c.Rank() == 0 {
				flows = c.CommMatrix()
			}
			return nil
		})
	})
	if err != nil {
		t.Fatalf("resume on %d ranks failed: %v", ranks2, err)
	}
	matrixConserved(t, flows)
	return betas
}

func TestCkptChaosCrashResumeFewerRanksLasso(t *testing.T) {
	x, y, _ := makeRegression(71, 90, 10, 3, 0.25)
	base := &LassoConfig{B1: 6, B2: 4, Q: 5, Seed: 17}
	plain, err := Lasso(x, y, base)
	if err != nil {
		t.Fatal(err)
	}
	// A 4-rank run of B1=6, B2=4 has three exchanges per rank after the
	// grid setup (two selection rounds, one estimation round). Setup op 0
	// crashes at the first exchange (nothing saved yet); op 1
	// mid-selection; op 2 at the estimation exchange after selection is
	// fully durable.
	for _, op := range []int{0, 1, 2} {
		crashOp := gridSetupOps + op
		t.Run(fmt.Sprintf("crashOp=%d", op), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fit.uoickpt")
			betas := crashThenResume(t, path, 2, crashOp, 4, 2,
				func(c *mpi.Comm, ck *CheckpointConfig) ([]float64, error) {
					cfg := *base
					cfg.Checkpoint = ck
					res, err := LassoGrid(c, x, y, &cfg, GridOptions{Shape: GridShape{PB: c.Size(), PL: 1}})
					if err != nil {
						return nil, err
					}
					return res.Beta, nil
				})
			for r, beta := range betas {
				assertBitsEqual(t, fmt.Sprintf("rank %d resumed vs uninterrupted serial", r), beta, plain.Beta)
			}
		})
	}
}

func TestCkptChaosCrashResumeFewerRanksVAR(t *testing.T) {
	_, series := makeVARData(72, 4, 1, 240)
	base := &VARConfig{Order: 1, B1: 4, B2: 3, Q: 4, Seed: 21}
	plain, err := VAR(series, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []int{1, 2} {
		crashOp := gridSetupOps + op
		t.Run(fmt.Sprintf("crashOp=%d", op), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "var.uoickpt")
			betas := crashThenResume(t, path, 1, crashOp, 3, 2,
				func(c *mpi.Comm, ck *CheckpointConfig) ([]float64, error) {
					cfg := *base
					cfg.Checkpoint = ck
					res, err := VARGrid(c, series, &cfg, GridOptions{Shape: GridShape{PB: c.Size(), PL: 1}})
					if err != nil {
						return nil, err
					}
					return res.Beta, nil
				})
			for r, beta := range betas {
				assertBitsEqual(t, fmt.Sprintf("rank %d resumed vs uninterrupted serial", r), beta, plain.Beta)
			}
		})
	}
}

// TestCkptChaosSweepAllBoundaries crashes a 2-rank checkpointed fit at
// every comm op from the first exchange past the last, proving "resume is
// bit-identical" holds with a crash at ANY bootstrap boundary, not just a
// lucky one. Each resumed fit runs on a single rank — the extreme form of
// resume-on-fewer-ranks.
func TestCkptChaosSweepAllBoundaries(t *testing.T) {
	x, y, _ := makeRegression(73, 60, 6, 2, 0.25)
	base := &LassoConfig{B1: 4, B2: 3, Q: 4, Seed: 29}
	plain, err := Lasso(x, y, base)
	if err != nil {
		t.Fatal(err)
	}
	// 2 ranks: the grid setup, then 2 selection rounds + 2 estimation
	// rounds + the closing work-counter reduction = 11 ops per rank
	// (0-based ops 0–10); sweeping to op 11 includes "crash scheduled after
	// all work is done", where the fit simply completes.
	for crashOp := 0; crashOp <= gridSetupOps+5; crashOp++ {
		crashOp := crashOp
		t.Run(fmt.Sprintf("crashOp=%d", crashOp), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fit.uoickpt")
			plan := fault.NewPlan(2, fault.Event{Kind: fault.Crash, Rank: 1, Op: crashOp})
			crashed := runBounded(t, func() error {
				return mpi.RunWithOptions(2, mpi.RunOptions{Fault: plan}, func(c *mpi.Comm) error {
					cfg := *base
					cfg.Checkpoint = &CheckpointConfig{Path: path}
					_, err := LassoGrid(c, x, y, &cfg, GridOptions{Shape: GridShape{PB: 2, PL: 1}})
					return err
				})
			}) != nil
			resume := false
			if _, statErr := os.Stat(path); statErr == nil {
				resume = true
			}
			if !crashed && !resume {
				t.Fatal("run neither crashed nor checkpointed")
			}
			cfg := *base
			cfg.Checkpoint = &CheckpointConfig{Path: path, Resume: resume}
			res, err := Lasso(x, y, &cfg)
			if err != nil {
				t.Fatalf("single-rank resume failed: %v", err)
			}
			for i := range res.Beta {
				if math.Float64bits(res.Beta[i]) != math.Float64bits(plain.Beta[i]) {
					t.Fatalf("crashOp %d: resumed beta[%d] differs", crashOp, i)
				}
			}
		})
	}
}

// TestCkptChaosGridResumeOnOtherShapes: a checkpointed grid fit crashed
// mid-selection, resumed at 2x1 and crashed again mid-estimation, then
// resumed serially, is bit-identical to an uninterrupted serial fit —
// whether it started at 4x1 or at 4x2 (where each round's checkpoint slots
// carry λ blocks from two columns). The checkpoint contents after each
// crash pin where the crash landed.
func TestCkptChaosGridResumeOnOtherShapes(t *testing.T) {
	x, y, _ := makeRegression(74, 90, 10, 3, 0.25)
	base := LassoConfig{B1: 8, B2: 6, Q: 5, Seed: 31}
	plain, err := Lasso(x, y, &base)
	if err != nil {
		t.Fatal(err)
	}
	// crashAt runs the fit on shape with rank 0 killed at op, resuming the
	// checkpoint when one exists, and returns the surviving state's counts.
	crashAt := func(t *testing.T, path string, shape GridShape, op int) (sel, est int) {
		t.Helper()
		_, statErr := os.Stat(path)
		plan := fault.NewPlan(shape.Ranks(), fault.Event{Kind: fault.Crash, Rank: 0, Op: op})
		err := runBounded(t, func() error {
			return mpi.RunWithOptions(shape.Ranks(), mpi.RunOptions{Fault: plan}, func(c *mpi.Comm) error {
				cfg := base
				cfg.Checkpoint = &CheckpointConfig{Path: path, Resume: statErr == nil}
				_, err := LassoGrid(c, x, y, &cfg, GridOptions{Shape: shape})
				return err
			})
		})
		if err == nil || !typedOutcome(err) {
			t.Fatalf("crash at %s op %d: err = %v, want a typed failure", shape, op, err)
		}
		st, err := checkpoint.Load(path)
		if err != nil {
			t.Fatalf("no checkpoint after crash at %s op %d: %v", shape, op, err)
		}
		return st.SelectionRecorded(), st.EstimationRecorded()
	}
	for _, start := range []struct {
		shape GridShape
		op    int // rank 0's op in the second selection round
	}{{GridShape{4, 1}, gridSetupOps + 1}, {GridShape{4, 2}, gridSetupOps + 2}} {
		t.Run(start.shape.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fit.uoickpt")
			if sel, est := crashAt(t, path, start.shape, start.op); sel == 0 || sel == base.B1 || est != 0 {
				t.Fatalf("first crash not mid-selection: %d/%d selection, %d estimation cells", sel, base.B1, est)
			}
			// At 2x1 the 4 remaining selection cells take two rounds; op
			// +3 is the second estimation round's exchange.
			if sel, est := crashAt(t, path, GridShape{2, 1}, gridSetupOps+3); sel != base.B1 || est == 0 || est == base.B2 {
				t.Fatalf("second crash not mid-estimation: %d selection, %d/%d estimation cells", sel, est, base.B2)
			}
			cfg := base
			cfg.Checkpoint = &CheckpointConfig{Path: path, Resume: true}
			res, err := Lasso(x, y, &cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertBitsEqual(t, "serial resume vs uninterrupted serial", res.Beta, plain.Beta)
			if res.Diag.LassoFits != 0 {
				t.Fatalf("serial resume re-ran %d selection solves", res.Diag.LassoFits)
			}
		})
	}
}
