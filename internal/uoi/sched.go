package uoi

// One bootstrap-cell scheduler runs every replicated-data UoI fit: serial
// (a goroutine pool), on a PB × PL process grid (the follow-up paper's
// P_B × P_λ decomposition, arXiv 1808.06992), and checkpointed in either
// form. A fit is B1 selection cells and B2 estimation cells, each a pure
// function of (seed, data, cell index) — see cells.go — plus two exactly
// order-independent combiners: integer support counts (the intersection)
// and a k-ordered union of the estimation winners. The scheduler runs one
// selection phase and one estimation phase over the cells a checkpoint does
// not already hold, so the result is bit-identical to the serial fit at
// any worker count, grid shape, or crash/resume boundary.
//
// On a grid the world is split into PB rows and PL columns via two
// mpi.Split calls. The i-th remaining selection cell runs on row i mod PB
// (cell k on row k mod PB when nothing is checkpointed); each column solves
// a contiguous λ block, chaining the serial
// warm-start (z, u) across columns with point-to-point handoffs (lamPipe).
// Without a checkpoint, per-block support counts tree-reduce down each
// column, row 0 thresholds and ring-allgathers the sparse supports, and the
// columns tree-broadcast them back down (or, with FlatCollectives, one
// world Allreduce ships the full counts). With a checkpoint, every round of
// PB cells is exchanged with one Allgather so every rank mirrors the
// checkpoint state and rank 0 can write it. Estimation cells shard
// round-robin over all PB·PL ranks, and each round's winners travel in a
// non-blocking ring gather that overlaps the next round's compute.

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"uoivar/internal/admm"
	"uoivar/internal/checkpoint"
	"uoivar/internal/mat"
	"uoivar/internal/mpi"
	"uoivar/internal/trace"
)

// GridShape is a P_B × P_λ process-grid layout: PB bootstrap rows times PL
// λ columns, requiring exactly PB·PL ranks. Rank r sits at grid position
// (row r/PL, column r%PL). The consensus-ADMM paths (LassoDistributed,
// VARDistributed) read a zero field as 1.
type GridShape struct {
	// PB is the number of bootstrap groups (grid rows); selection bootstrap
	// k is processed by row k mod PB.
	PB int
	// PL is the number of λ groups (grid columns); column c owns the
	// contiguous λ-index block admm.RowBlock(len(lambdas), PL, c).
	PL int
}

// ParseGridShape parses an "RxC" grid spec ("4x2" → 4 bootstrap rows × 2 λ
// columns). Both sides must be plain decimal integers ≥ 1, nothing may
// follow them, and R·C must fit in an int.
func ParseGridShape(s string) (GridShape, error) {
	r, c, ok := strings.Cut(s, "x")
	pb, errR := parseDigits(r)
	pl, errC := parseDigits(c)
	if !ok || errR != nil || errC != nil {
		return GridShape{}, fmt.Errorf("uoi: grid %q not of the form RxC", s)
	}
	g := GridShape{PB: pb, PL: pl}
	if pb < 1 || pl < 1 {
		return g, fmt.Errorf("uoi: grid %q must be at least 1x1", s)
	}
	if pb > math.MaxInt/pl {
		return g, fmt.Errorf("uoi: grid %q needs more ranks than an int holds", s)
	}
	return g, nil
}

// parseDigits parses a non-empty run of ASCII digits (no sign, no space).
func parseDigits(s string) (int, error) {
	if s == "" || strings.TrimLeft(s, "0123456789") != "" {
		return 0, strconv.ErrSyntax
	}
	return strconv.Atoi(s)
}

// Ranks returns the process count the shape requires (PB·PL).
func (g GridShape) Ranks() int { return g.PB * g.PL }

// String renders the shape as "RxC".
func (g GridShape) String() string { return fmt.Sprintf("%dx%d", g.PB, g.PL) }

// normalize reads zero (unset) dimensions as 1.
func (g GridShape) normalize() GridShape {
	g.PB, g.PL = max(g.PB, 1), max(g.PL, 1)
	return g
}

// GridOptions configures a grid fit.
type GridOptions struct {
	// Shape is the process-grid layout; Shape.Ranks() must equal the
	// communicator size.
	Shape GridShape
	// FlatCollectives replaces the tree/ring reassembly with the flat
	// barrier collectives (full-width Allreduce/Allgather) — the
	// measurement baseline the bench artifact compares the
	// communication-avoiding path against. Results are bit-identical in
	// both modes; only bytes-on-wire and wait time differ.
	FlatCollectives bool
}

// CheckpointConfig enables checkpointed execution of a UoI fit: completed
// selection and estimation cells are written durably to Path so a crashed
// fit can resume without recomputing them.
//
// Checkpointing is an option of the cell scheduler, so it applies to the
// serial fits (Lasso, VAR) and the grid fits (LassoGrid, VARGrid). Every
// cell is a pure function of (Seed, data, cell index) and the combiners are
// exactly order-independent, so a resumed fit is bit-identical to an
// uninterrupted serial fit — including when it resumes on a different grid
// shape or rank count. (The consensus-ADMM paths, LassoDistributed and
// VARDistributed, shard *rows* rather than bootstraps; their iterates
// depend on the rank count, so they are outside checkpoint scope — see
// DESIGN.md §11.)
type CheckpointConfig struct {
	// Path is the checkpoint file location. In grid runs every rank reads
	// it on resume but only rank 0 writes, atomically
	// (temp + fsync + rename), so a crash at any instant leaves either the
	// previous or the next complete checkpoint, never a torn file.
	Path string
	// Every is the save cadence in completed cells (≤0 means 1). The
	// writer saves after every Every newly completed cells and always at
	// phase boundaries.
	Every int
	// Resume loads Path before fitting and skips every recorded cell.
	// A missing file fails with fs.ErrNotExist, structural damage with
	// checkpoint.ErrCorrupt/ErrSchema, and a checkpoint from a different
	// fit (other data, seed, λ grid, or solver configuration — detected by
	// fingerprint) with checkpoint.ErrMismatch; never a panic. Cells
	// dropped under quorum mode are durable: a resumed fit does not retry
	// them, so a degraded fit resumes to the same degraded result.
	Resume bool
}

// gridComms bundles the derived communicators of one rank's grid position.
type gridComms struct {
	world *mpi.Comm // the full grid, labeled "world"
	row   *mpi.Comm // the PL ranks sharing this bootstrap row, labeled "row"
	col   *mpi.Comm // the PB ranks sharing this λ column, labeled "col"
	rowIx int       // this rank's grid row (bootstrap group)
	colIx int       // this rank's grid column (λ group)
	shape GridShape
}

// checkGrid validates the shape against the communicator size.
func checkGrid(comm *mpi.Comm, shape GridShape) error {
	if shape.PB < 1 || shape.PL < 1 {
		return fmt.Errorf("uoi: invalid grid shape %s", shape)
	}
	if comm.Size() != shape.Ranks() {
		return fmt.Errorf("uoi: grid %s needs %d ranks, have %d", shape, shape.Ranks(), comm.Size())
	}
	return nil
}

// newGridComms derives the row/column sub-communicators. Within a row the
// sub-comm rank equals the grid column (Split orders by key = parent rank),
// and within a column it equals the grid row, so column roots
// (col.Rank() == 0) are exactly the grid's row 0.
func newGridComms(comm *mpi.Comm, shape GridShape) *gridComms {
	gc := &gridComms{
		world: comm.WithLabel("world"),
		rowIx: comm.Rank() / shape.PL,
		colIx: comm.Rank() % shape.PL,
		shape: shape,
	}
	gc.row = comm.Split(gc.rowIx, comm.Rank()).WithLabel("row")
	gc.col = comm.Split(gc.colIx, comm.Rank()).WithLabel("col")
	return gc
}

// lamPipe carries one selection cell's λ-path warm start across grid
// columns: a column receives the (z, u) pair the serial sweep would carry
// into its first λ from the column to its left, and forwards its last pair
// to the right. Each cell has subs independent chains (one per VAR
// equation), tagged tag+sub. A nil pipe is the serial full-path sweep.
type lamPipe struct {
	row       *mpi.Comm
	col, cols int
	tag       int
}

// warm returns chain sub's incoming (z, u), nil at the first column.
func (lp *lamPipe) warm(sub int) (z, u []float64) {
	if lp == nil || lp.col == 0 {
		return nil, nil
	}
	pay := lp.row.Recv(lp.col-1, lp.tag+sub)
	n := len(pay) / 2
	if n == 0 {
		return nil, nil
	}
	return pay[:n], pay[n:]
}

// emit forwards chain sub's outgoing (z, u) to the next column. An empty
// payload (no state yet) makes the next column cold-start, exactly as the
// serial sweep would at its first λ.
func (lp *lamPipe) emit(sub int, z, u []float64) {
	if lp == nil || lp.col == lp.cols-1 {
		return
	}
	var pay []float64
	if len(z) > 0 {
		pay = append(append(make([]float64, 0, len(z)+len(u)), z...), u...)
	}
	lp.row.Send(lp.col+1, lp.tag+sub, pay)
}

// cellWork is the solver work one cell performed.
type cellWork struct {
	lassoFits, olsFits, iters int
	kron                      time.Duration
}

func (w *cellWork) add(o cellWork) {
	w.lassoFits += o.lassoFits
	w.olsFits += o.olsFits
	w.iters += o.iters
	w.kron += o.kron
}

// fitSpec describes one fit to the scheduler: bootstrap counts, combiner
// settings, and the model's cell bodies.
type fitSpec struct {
	b1, b2  int
	width   int // coefficients per λ: p (UoI_LASSO) or betaLen (UoI_VAR)
	subs    int // warm-start chains per selection cell (1, or p equations)
	lambdas []float64
	selFrac float64
	minFrac float64 // quorum fraction; 0 = strict
	median  bool
	fault   func(phase string, k int) error
	workers int
	tr      *trace.Tracer
	ckpt    *CheckpointConfig
	meta    func() checkpoint.Meta // the fit's checkpoint identity
	// sel runs selection cell k over λ indices [jLo, jHi) and returns its
	// support indicators flattened as sup[(j−jLo)·width + i]. sp is the
	// selection phase span.
	sel func(k, jLo, jHi int, pipe *lamPipe, sp trace.Span) ([]bool, cellWork, error)
	// est runs estimation cell k over the candidate supports and returns
	// its held-out winner.
	est func(k int, distinct [][]int, sp trace.Span) ([]float64, cellWork)
}

// fitOut is the combined result of a scheduled fit.
type fitOut struct {
	beta     []float64
	supports [][]int
	boot     BootstrapStats
	diag     Diagnostics
	kron     time.Duration
}

// scheduler is one rank's (or the serial process's) view of a fit.
type scheduler struct {
	*fitSpec
	gc   *gridComms // nil: serial worker pool
	flat bool
	ck   *ckptRun // nil: no checkpoint

	mu      sync.Mutex // guards the state below in the worker pool
	work    cellWork
	counts  []float64   // per-(λ, coefficient) selection tally
	selDone []float64   // 1 where selection cell k completed
	winners [][]float64 // estimation winners by k (nil = not completed)
	failed  []error     // cells this process dropped in the current phase
}

// runCells executes a fit: serially on the Workers pool when comm is nil,
// else on the opt.Shape grid (the caller has validated it). Every rank
// returns the identical result.
func runCells(comm *mpi.Comm, opt GridOptions, s *fitSpec) (*fitOut, error) {
	e := &scheduler{fitSpec: s, flat: opt.FlatCollectives}
	if comm != nil {
		e.gc = newGridComms(comm, opt.Shape)
	}
	if s.ckpt != nil {
		ck, err := openCheckpoint(s.ckpt, s.meta(), s.lambdas, s.tr)
		if err != nil {
			return nil, err
		}
		ck.writer = comm == nil || comm.Rank() == 0
		e.ck = ck
	}
	q, tr := len(s.lambdas), s.tr
	out := &fitOut{}

	// ---- Model selection ----
	tSel := time.Now()
	spSel := tr.Start("selection")
	e.counts = make([]float64, q*s.width)
	e.selDone = make([]float64, s.b1)
	rem := e.remaining(s.b1, func(k int) bool {
		sup, dropped, ok := e.ck.st.Selection(k)
		if ok && !dropped {
			e.addSel(k, sup, 0)
		}
		return ok
	})
	if err := e.selection(rem, spSel); err != nil {
		return nil, err
	}
	spSel.End()
	b1Done := s.b1
	if s.minFrac > 0 {
		if e.gc != nil && e.ck == nil {
			// Every column of a row records the same verdict for its cells,
			// so a Max reduction gives the world-agreed completed set.
			e.gc.world.Allreduce(mpi.OpMax, e.selDone)
		}
		b1Done = 0
		for _, ok := range e.selDone {
			b1Done += int(ok)
		}
		if err := e.quorum("selection", b1Done, s.b1); err != nil {
			return nil, err
		}
	}
	out.boot.B1Completed, out.boot.B1Failed = b1Done, s.b1-b1Done

	// ---- Intersection ----
	spInt := tr.Start("intersection")
	supports, err := e.intersect(float64(selectionThreshold(s.selFrac, b1Done)))
	if err != nil {
		return nil, err
	}
	out.supports = supports
	out.diag.SelectionTime = time.Since(tSel)
	tEst := time.Now()
	distinct := dedupeSupports(supports)
	spInt.End()

	// ---- Model estimation ----
	spEst := tr.Start("estimation")
	e.winners = make([][]float64, s.b2)
	e.failed = nil
	rem = e.remaining(s.b2, func(k int) bool {
		beta, dropped, ok := e.ck.st.Estimation(k)
		if ok && !dropped {
			e.winners[k] = beta
		}
		return ok
	})
	if err := e.estimation(rem, distinct, spEst); err != nil {
		return nil, err
	}
	spEst.End()

	// ---- Union over the completed winners, in fixed k order ----
	spUnion := tr.Start("union")
	completed := make([][]float64, 0, s.b2)
	for _, w := range e.winners {
		if w != nil {
			completed = append(completed, w)
		}
	}
	out.boot.B2Completed, out.boot.B2Failed = len(completed), s.b2-len(completed)
	if err := e.quorum("estimation", len(completed), s.b2); err != nil {
		return nil, err
	}
	out.beta = combineWinners(completed, s.width, s.median)
	spUnion.End()
	out.diag.EstimationTime = time.Since(tEst)

	w := e.work
	if e.gc != nil {
		// Work counters sum exactly (integers); every rank reports the
		// global totals, like the serial Diag.
		d := []float64{float64(w.lassoFits), float64(w.olsFits), float64(w.iters)}
		e.gc.world.Allreduce(mpi.OpSum, d)
		w.lassoFits, w.olsFits, w.iters = int(d[0]), int(d[1]), int(d[2])
	}
	out.diag.LassoFits, out.diag.OLSFits, out.diag.ADMMIters = w.lassoFits, w.olsFits, w.iters
	out.kron = w.kron
	return out, nil
}

// remaining lists a phase's cells the checkpoint does not hold, ascending;
// held(k) folds a checkpointed cell into the phase state and reports
// whether the checkpoint holds it.
func (e *scheduler) remaining(total int, held func(k int) bool) []int {
	rem := make([]int, 0, total)
	for k := 0; k < total; k++ {
		if e.ck == nil || !held(k) {
			rem = append(rem, k)
		}
	}
	if skipped := total - len(rem); skipped > 0 {
		e.tr.Add("ckpt/cells_skipped", int64(skipped))
	}
	return rem
}

// quorum fails the fit when fewer than ceil(minFrac·total) cells of a
// phase completed (quorum mode only).
func (e *scheduler) quorum(phase string, done, total int) error {
	if e.minFrac <= 0 {
		return nil
	}
	if need := quorumCount(e.minFrac, total); done < need {
		head := fmt.Errorf("%w: %s completed %d/%d, need %d", ErrQuorum, phase, done, total, need)
		return errors.Join(append([]error{head}, e.failed...)...)
	}
	return nil
}

// cell runs the fault hook and then body under a bootstrap span, and
// counts the body's work. A failure in quorum mode is recorded as this
// process's drop.
func (e *scheduler) cell(phase string, k int, sp trace.Span, body func() (cellWork, error)) error {
	var w cellWork
	var err error
	if e.fault != nil {
		if ferr := e.fault(phase, k); ferr != nil {
			err = fmt.Errorf("uoi: %s bootstrap %d: %w", phase, k, ferr)
		}
	}
	if err == nil {
		spBoot := sp.Child("bootstrap")
		w, err = body()
		spBoot.End()
	}
	drop := err != nil && e.minFrac > 0
	if drop {
		e.tr.Instant("fault/bootstrap_dropped", "fault")
	}
	e.mu.Lock()
	e.work.add(w)
	if drop {
		e.failed = append(e.failed, err)
	}
	e.mu.Unlock()
	return err
}

// pool runs cells rem on the Workers goroutine pool. run computes cell k
// and returns the closure that folds its result into the phase state;
// folding, quorum drops and checkpoint saves happen under e.mu. A strict
// failure or a checkpoint write error stops the pool.
func (e *scheduler) pool(rem []int, run func(k int) (func(), error), drop func(k int)) error {
	err := forEachBootstrap(e.workers, len(rem), func(i int) error {
		k := rem[i]
		apply, err := run(k)
		if err != nil && e.minFrac <= 0 {
			return err
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		if err != nil {
			drop(k)
		} else {
			apply()
		}
		return e.ck.bump(1)
	})
	if err != nil {
		return err
	}
	return e.ck.flush()
}

// addSel folds selection cell k's indicators, covering λ indices from jLo,
// into the counts and records the cell in the checkpoint.
func (e *scheduler) addSel(k int, sup []bool, jLo int) {
	counts := e.counts[jLo*e.width:]
	for i, v := range sup {
		if v {
			counts[i]++
		}
	}
	e.selDone[k] = 1
	if e.ck != nil {
		e.ck.st.AddSelection(k, sup)
	}
}

// dropSel records a durable quorum drop of selection cell k.
func (e *scheduler) dropSel(k int) {
	if e.ck != nil {
		e.ck.st.DropSelection(k)
	}
}

// addEst records estimation cell k's winner.
func (e *scheduler) addEst(k int, beta []float64) {
	e.winners[k] = beta
	if e.ck != nil {
		e.ck.st.AddEstimation(k, beta)
	}
}

// dropEst records a durable quorum drop of estimation cell k.
func (e *scheduler) dropEst(k int) {
	if e.ck != nil {
		e.ck.st.DropEstimation(k)
	}
}

// selection runs the remaining selection cells.
func (e *scheduler) selection(rem []int, sp trace.Span) error {
	q := len(e.lambdas)
	run := func(k, jLo, jHi int, pipe *lamPipe) (sup []bool, err error) {
		err = e.cell("selection", k, sp, func() (w cellWork, err error) {
			sup, w, err = e.sel(k, jLo, jHi, pipe, sp)
			return w, err
		})
		return sup, err
	}
	gc := e.gc
	if gc == nil {
		return e.pool(rem, func(k int) (func(), error) {
			sup, err := run(k, 0, q, nil)
			return func() { e.addSel(k, sup, 0) }, err
		}, e.dropSel)
	}
	jLo, jHi := admm.RowBlock(q, gc.shape.PL, gc.colIx)
	for off := 0; off < len(rem); off += gc.shape.PB {
		round := rem[off:min(off+gc.shape.PB, len(rem))]
		var sup []bool
		var err error
		if gc.rowIx < len(round) {
			k := round[gc.rowIx]
			pipe := &lamPipe{row: gc.row, col: gc.colIx, cols: gc.shape.PL, tag: k * e.subs}
			// Faults and factorization errors are pure functions of k and
			// the replicated data, so every column of the row reaches the
			// same verdict with no agreement messages.
			if sup, err = run(k, jLo, jHi, pipe); err != nil && e.minFrac <= 0 {
				return err
			}
			if err == nil && e.ck == nil {
				e.addSel(k, sup, jLo)
			}
		}
		if e.ck != nil {
			if err := e.exchangeSel(round, err == nil, sup); err != nil {
				return err
			}
		}
	}
	return e.ck.flush()
}

// exchangeSel shares one checkpointed selection round: every rank ships
// [done, its λ-block indicators] in a fixed-size slot, and a row's column
// slots concatenate, in λ order, to the full support of the row's cell.
// The exchange is pure concatenation, so every rank records identical
// cells.
func (e *scheduler) exchangeSel(round []int, done bool, sup []bool) error {
	q, w, pl := len(e.lambdas), e.width, e.gc.shape.PL
	lo0, hi0 := admm.RowBlock(q, pl, 0) // column 0 holds the largest block
	slotLen := 1 + (hi0-lo0)*w
	slot := make([]float64, slotLen)
	if done {
		slot[0] = 1
	}
	for i, v := range sup {
		if v {
			slot[1+i] = 1
		}
	}
	all := e.gc.world.Allgather(slot)
	for r, k := range round {
		if all[r*pl*slotLen] == 0 {
			e.dropSel(k)
			continue
		}
		full := make([]bool, q*w)
		for c := 0; c < pl; c++ {
			lo, hi := admm.RowBlock(q, pl, c)
			src := all[(r*pl+c)*slotLen+1:]
			for i := range full[lo*w : hi*w] {
				full[lo*w+i] = src[i] != 0
			}
		}
		e.addSel(k, full, 0)
	}
	return e.ck.bump(len(round))
}

// intersect thresholds the selection counts into per-λ supports. Serial
// and checkpointed runs hold every cell's counts locally; an uncheckpointed
// grid reduces the per-block counts first. Counts are integers, so no
// reduction order can change any value.
func (e *scheduler) intersect(threshold float64) ([][]int, error) {
	q, w, gc := len(e.lambdas), e.width, e.gc
	if gc == nil || e.ck != nil {
		return thresholdSupports(e.counts, q, w, threshold), nil
	}
	if e.flat {
		gc.world.Allreduce(mpi.OpSum, e.counts)
		return thresholdSupports(e.counts, q, w, threshold), nil
	}
	// Tree-reduce each λ block down its column to row 0, which thresholds
	// to sparse supports and ring-allgathers them across the row (column
	// order = ascending λ); each column root tree-broadcasts the full
	// encoding back down.
	jLo, jHi := admm.RowBlock(q, gc.shape.PL, gc.colIx)
	block := e.counts[jLo*w : jHi*w]
	gc.col.TreeReduce(0, mpi.OpSum, block)
	var enc []float64
	if gc.rowIx == 0 {
		enc = gc.row.RingAllgatherv(encodeSupports(thresholdSupports(block, jHi-jLo, w, threshold)))
	}
	return decodeSupports(gc.col.TreeBcastV(0, enc), q)
}

// thresholdSupports keeps, per λ row of counts, the coefficients reaching
// threshold.
func thresholdSupports(counts []float64, q, w int, threshold float64) [][]int {
	supports := make([][]int, q)
	for j := range supports {
		for i, ct := range counts[j*w : (j+1)*w] {
			if ct >= threshold {
				supports[j] = append(supports[j], i)
			}
		}
	}
	return supports
}

// estimation runs the remaining estimation cells.
func (e *scheduler) estimation(rem []int, distinct [][]int, sp trace.Span) error {
	run := func(k int) (beta []float64, err error) {
		err = e.cell("estimation", k, sp, func() (w cellWork, _ error) {
			beta, w = e.est(k, distinct, sp)
			return w, nil
		})
		return beta, err
	}
	if e.gc == nil {
		return e.pool(rem, func(k int) (func(), error) {
			beta, err := run(k)
			return func() { e.addEst(k, beta) }, err
		}, e.dropEst)
	}
	world := e.gc.world
	size, rank, w := world.Size(), world.Rank(), e.width
	rounds := (len(rem) + size - 1) / size
	// Round payload: [k, status, beta…] for this rank's cell, status 0
	// marking a dropped cell (no beta follows); empty when the rank has no
	// cell this round (the ragged tail).
	compute := func(t int) ([]float64, error) {
		if t*size+rank >= len(rem) {
			return nil, nil
		}
		k := rem[t*size+rank]
		beta, err := run(k)
		if err != nil {
			if e.minFrac <= 0 {
				return nil, err
			}
			return []float64{float64(k), 0}, nil
		}
		return append([]float64{float64(k), 1}, beta...), nil
	}
	apply := func(data []float64) error {
		n := 0
		for pos := 0; pos < len(data); n++ {
			if pos+2 > len(data) {
				return fmt.Errorf("uoi: estimation payload truncated at offset %d", pos)
			}
			k, status := int(data[pos]), data[pos+1]
			pos += 2
			if k < 0 || k >= e.b2 {
				return fmt.Errorf("uoi: estimation payload names bootstrap %d of %d", k, e.b2)
			}
			if status == 0 {
				e.dropEst(k)
				continue
			}
			if pos+w > len(data) {
				return fmt.Errorf("uoi: estimation payload truncated in bootstrap %d", k)
			}
			e.addEst(k, append([]float64(nil), data[pos:pos+w]...))
			pos += w
		}
		return e.ck.bump(n)
	}
	if e.flat {
		// Flat baseline: compute every round, then exchange once with a
		// padded fixed-slot Allgather (slot = [k+1, status, beta…]; k+1 = 0
		// marks an empty slot). Pure concatenation, like the ring path.
		slotLen := 2 + w
		mine := make([]float64, rounds*slotLen)
		for t := 0; t < rounds; t++ {
			pay, err := compute(t)
			if err != nil {
				return err
			}
			if pay != nil {
				pay[0]++
				copy(mine[t*slotLen:], pay)
			}
		}
		all := world.Allgather(mine)
		for s := 0; s < len(all); s += slotLen {
			if slot := all[s : s+slotLen]; slot[0] != 0 {
				slot[0]--
				if err := apply(slot[:2+w*int(slot[1])]); err != nil {
					return err
				}
			}
		}
		return e.ck.flush()
	}
	// While round t's cells run, round t−1's ring gather is in flight.
	var prev *mpi.GatherRequest
	for t := 0; t < rounds; t++ {
		pay, err := compute(t)
		if err != nil {
			return err
		}
		if prev != nil {
			if err := apply(prev.Wait()); err != nil {
				return err
			}
		}
		prev = world.IRingAllgatherv(pay)
	}
	if prev != nil {
		if err := apply(prev.Wait()); err != nil {
			return err
		}
	}
	return e.ck.flush()
}

// encodeSupports packs per-λ supports as [count, idx…]… — the
// variable-length payload the ring/tree reassembly ships.
func encodeSupports(supports [][]int) []float64 {
	var enc []float64
	for _, s := range supports {
		enc = append(enc, float64(len(s)))
		for _, i := range s {
			enc = append(enc, float64(i))
		}
	}
	return enc
}

// decodeSupports unpacks q per-λ supports from an encodeSupports payload.
func decodeSupports(enc []float64, q int) ([][]int, error) {
	out := make([][]int, q)
	pos := 0
	for j := 0; j < q; j++ {
		if pos >= len(enc) {
			return nil, fmt.Errorf("uoi: support payload truncated at λ %d", j)
		}
		n := int(enc[pos])
		pos++
		if n < 0 || pos+n > len(enc) {
			return nil, fmt.Errorf("uoi: support payload corrupt at λ %d (count %d)", j, n)
		}
		for _, v := range enc[pos : pos+n] {
			out[j] = append(out[j], int(v))
		}
		pos += n
	}
	if pos != len(enc) {
		return nil, fmt.Errorf("uoi: support payload has %d trailing values", len(enc)-pos)
	}
	return out, nil
}

// ckptRun is a fit's checkpoint: the cell state every rank mirrors and the
// save cadence (only the writer touches the file).
type ckptRun struct {
	cfg    *CheckpointConfig
	st     *checkpoint.State
	tr     *trace.Tracer
	every  int
	since  int // cells completed since the last save
	writer bool
}

// openCheckpoint starts a fresh checkpoint, or on resume loads and
// identity-checks the file (ckpt_load span; typed errors, never a panic).
func openCheckpoint(ck *CheckpointConfig, meta checkpoint.Meta, lambdas []float64, tr *trace.Tracer) (*ckptRun, error) {
	if ck.Path == "" {
		return nil, errors.New("uoi: checkpointed run requires CheckpointConfig.Path")
	}
	r := &ckptRun{cfg: ck, tr: tr, every: max(ck.Every, 1)}
	if !ck.Resume {
		r.st = checkpoint.New(meta, lambdas)
		return r, nil
	}
	sp := tr.Start("ckpt_load")
	defer sp.End()
	st, err := checkpoint.Load(ck.Path)
	if err == nil {
		err = st.Matches(meta, lambdas)
	}
	if err != nil {
		return nil, fmt.Errorf("uoi: resume from %s: %w", ck.Path, err)
	}
	tr.Add("ckpt/cells_loaded", int64(st.SelectionRecorded()+st.EstimationRecorded()))
	r.st = st
	return r, nil
}

// bump counts completed cells and saves at the cadence. Every rank tracks
// the cadence, so the counter stays rank-identical. Nil-safe.
func (r *ckptRun) bump(cells int) error {
	if r == nil {
		return nil
	}
	r.since += cells
	if r.since < r.every {
		return nil
	}
	return r.flush()
}

// flush saves any cells completed since the last save (writer only) under
// a ckpt_write span. Nil-safe.
func (r *ckptRun) flush() error {
	if r == nil || r.since == 0 {
		return nil
	}
	r.since = 0
	if !r.writer {
		return nil
	}
	sp := r.tr.Start("ckpt_write")
	defer sp.End()
	if err := checkpoint.Save(r.cfg.Path, r.st); err != nil {
		return fmt.Errorf("uoi: checkpoint write %s: %w", r.cfg.Path, err)
	}
	r.tr.Add("ckpt/writes", 1)
	return nil
}

// lassoFingerprint hashes everything that determines a UoI_LASSO fit's
// cells: data dimensions and bits, and every solver-affecting configuration
// scalar (the seed itself lives in Meta). Execution-only knobs (Workers,
// KernelWorkers, trace wiring, grid shape) and post-combination choices
// recomputed fresh on resume (MedianUnion) are deliberately excluded — they
// cannot change any cell.
func lassoFingerprint(x *mat.Dense, y []float64, c *LassoConfig) uint64 {
	h := checkpoint.NewHasher()
	h.AddUint64(uint64(x.Rows))
	h.AddUint64(uint64(x.Cols))
	h.AddFloat(c.ADMM.Rho)
	h.AddUint64(uint64(c.ADMM.MaxIter))
	h.AddFloat(c.ADMM.AbsTol)
	h.AddFloat(c.ADMM.RelTol)
	h.AddFloat(c.L2)
	h.AddFloat(c.SupportTol)
	h.AddFloat(c.SelectionFrac)
	h.AddFloat(c.TrainFrac)
	h.AddFloat(c.MinBootstrapFrac)
	h.AddFloats(x.Data)
	h.AddFloats(y)
	return h.Sum()
}

// varFingerprint is lassoFingerprint's UoI_VAR counterpart; blockLen is the
// resolved block-bootstrap length (the ⌈√m⌉ default must fingerprint the
// same as passing it explicitly).
func varFingerprint(series *mat.Dense, blockLen int, c *VARConfig) uint64 {
	h := checkpoint.NewHasher()
	h.AddUint64(uint64(series.Rows))
	h.AddUint64(uint64(series.Cols))
	h.AddUint64(uint64(c.Order))
	h.AddUint64(uint64(blockLen))
	if c.NoIntercept {
		h.AddUint64(1)
	} else {
		h.AddUint64(0)
	}
	h.AddFloat(c.ADMM.Rho)
	h.AddUint64(uint64(c.ADMM.MaxIter))
	h.AddFloat(c.ADMM.AbsTol)
	h.AddFloat(c.ADMM.RelTol)
	h.AddFloat(c.L2)
	h.AddFloat(c.SupportTol)
	h.AddFloat(c.SelectionFrac)
	h.AddFloat(c.TrainFrac)
	// Anchored resampling changes every selection cell's draw, and the
	// anchor offset is part of that draw. Hashed only when enabled so
	// fingerprints of ordinary fits are unchanged from prior releases.
	if c.Anchored {
		h.AddUint64(1)
		h.AddUint64(uint64(c.Anchor))
	}
	h.AddFloats(series.Data)
	return h.Sum()
}
