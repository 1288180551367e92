package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"uoivar/internal/graph"
	"uoivar/internal/mat"
	"uoivar/internal/model"
	"uoivar/internal/monitor"
	"uoivar/internal/serve"
	"uoivar/internal/stream"
	"uoivar/internal/telemetry"
	"uoivar/internal/trace"
)

// Serve-phase traffic. The rates are fixed so every workload sees the same
// mix; they are sized so that one fixed-rate phase of a few seconds gives
// each request type at least 1,000 samples, which p99 needs.
const (
	modelName    = "net"
	window       = 512  // streaming window in rows
	refitEvery   = 64   // rows between background refits
	forecastRate = 500  // fixed forecast rate, requests/s
	topkRate     = 160  // requests/s; bodies repeat, so the response cache hits
	ingestRate   = 160  // one-row ingests/s: a refit is due every 0.4 s
	historyRows  = 2    // forecast history length
	horizon      = 8    // forecast horizon
	topkTol      = 0.05 // edge threshold of the top-k queries
	ladderStart  = 1000 // first forecast rate of the ladder, requests/s
	ladderFactor = 1.5  // rate ratio between ladder steps
	ladderSteps  = 8    // most geometric steps before bisection
	bisections   = 3    // refinement steps between the last pass and first failure
	stepSeconds  = 0.8  // length of one ladder step
	ladderBudget = 8.0  // seconds the ladder is planned to take
	minFixed     = 7.0  // shortest fixed-rate phase, seconds
	sampleEvery  = 16   // every n-th forecast and top-k response is checked
	serverStarts = 3    // server set-ups per run (at most datasets); setup_s counts the median
)

// benchServer is a uoiserve -stream -metrics equivalent on loopback.
type benchServer struct {
	reg  *serve.Registry
	mgr  *stream.Manager
	srv  *serve.Server
	tr   *trace.Tracer
	base string
	vers *versionLog
}

// startServer registers art, starts the server with streaming refits and
// /metrics, fills the window with prefill and waits for the first refit.
func startServer(art *model.Artifact, prefill *mat.Dense, traced bool) (*benchServer, error) {
	b := &benchServer{reg: serve.NewRegistry()}
	if _, err := b.reg.Set(modelName, art, ""); err != nil {
		return nil, err
	}
	treg := telemetry.NewRegistry()
	mon := monitor.New("perfbench")
	mon.SetMetrics(treg)
	if traced {
		b.tr = trace.New()
		telemetry.BridgeTrace(treg, b.tr)
	}
	b.mgr = stream.NewManager(b.reg, stream.Options{Window: window, RefitEvery: refitEvery, Tracer: b.tr, Metrics: treg})
	// uoiserve's defaults, except that the batch window is 0: with at most
	// nproc client connections a batch never fills, so a window would only
	// add its length to every forecast.
	b.srv = serve.New(serve.Config{
		Registry: b.reg, BatchMax: 64, CacheEntries: 256,
		MaxInflight: 256, Timeout: 30 * time.Second, Streams: b.mgr,
		Tracer: b.tr, Monitor: mon, Metrics: treg,
	})
	addr, err := b.srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.base = "http://" + addr
	eng, err := b.engine()
	if err != nil {
		b.close()
		return nil, err
	}
	b.vers = startVersionLog(b.reg, eng)
	rows := make([][]float64, prefill.Rows)
	for i := range rows {
		rows[i] = prefill.Row(i)
	}
	if _, err := b.mgr.Ingest(modelName, rows); err != nil {
		b.close()
		return nil, err
	}
	for deadline := time.Now().Add(2 * time.Minute); ; {
		st, _ := b.mgr.Status(modelName)
		if st.Refits >= 1 && !st.RefitPending {
			break
		}
		if st.LastError != "" || time.Now().After(deadline) {
			b.close()
			return nil, fmt.Errorf("first refit did not publish: %q", st.LastError)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return b, nil
}

// engine returns the model's stream engine; Status creates it.
func (b *benchServer) engine() (*stream.Engine, error) {
	b.mgr.Status(modelName)
	eng, ok := b.mgr.Engine(modelName)
	if !ok {
		return nil, fmt.Errorf("no stream engine for %s", modelName)
	}
	return eng, nil
}

// close drains the server and waits for background refits and the
// version log to stop.
func (b *benchServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	b.srv.Shutdown(ctx) //nolint:errcheck // best-effort drain at exit
	b.mgr.Quiesce(ctx)  //nolint:errcheck // waits for the running refit
	if b.vers != nil {
		b.vers.stop()
	}
}

// versionInfo is one published model version as the version log saw it.
type versionInfo struct {
	entry *serve.Entry
	// fitted is the stream row count the version's refit covered (0 for
	// the fitted artifact the server started with).
	fitted  int64
	refitMs float64
	iters   int
}

// versionLog polls the registry every millisecond and records each
// published version with the rows its refit covered. Refits take far
// longer than a millisecond, so no version is missed.
type versionLog struct {
	mu    sync.Mutex
	vers  map[int]versionInfo
	stopc chan struct{}
	done  chan struct{}
}

func startVersionLog(reg *serve.Registry, eng *stream.Engine) *versionLog {
	l := &versionLog{vers: map[int]versionInfo{}, stopc: make(chan struct{}), done: make(chan struct{})}
	e := reg.Get(modelName)
	l.vers[e.Version] = versionInfo{entry: e}
	go func() {
		defer close(l.done)
		last := e.Version
		var lastSeries *mat.Dense
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-l.stopc:
				return
			case <-t.C:
			}
			e := reg.Get(modelName)
			if e.Version == last {
				continue
			}
			// The engine records the refit's window right after
			// publishing; wait for it to change.
			series, cfg := eng.LastFit()
			for i := 0; series == lastSeries && i < 1000; i++ {
				time.Sleep(50 * time.Microsecond)
				series, cfg = eng.LastFit()
			}
			lastSeries = series
			st := eng.Status()
			info := versionInfo{entry: e, refitMs: st.LastRefitMs, iters: st.LastRefitIters}
			if series != nil && cfg.Anchored && e.Version == last+1 {
				info.fitted = cfg.Anchor + int64(series.Rows)
			} else {
				info.fitted = -1 // unattributed
			}
			last = e.Version
			l.mu.Lock()
			l.vers[e.Version] = info
			l.mu.Unlock()
		}
	}()
	return l
}

func (l *versionLog) stop() {
	close(l.stopc)
	<-l.done
}

func (l *versionLog) snapshot() map[int]versionInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[int]versionInfo, len(l.vers))
	for k, v := range l.vers {
		out[k] = v
	}
	return out
}

// servePhase serves the first instance's artifact: a fixed-rate phase of
// reads and writes measures the latencies, model lag and layer counters. A
// traced run then climbs a read-only rate ladder to find the highest
// forecast rate that meets the p99 limit; its result is a per-layer metric,
// so an untraced run gives the ladder's time to the fixed-rate phase.
func (r *run) servePhase(sets []*dataset, setupS float64, arts []*model.Artifact) error {
	// The server is set up serverStarts times, each time up to its first
	// refit and on another instance, ending with the first instance; all
	// but the last are closed again. Set-up time counts the median start.
	var b *benchServer
	var starts []float64
	for i := serverStarts - 1; i >= 0; i-- {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		var err error
		if b, err = startServer(arts[i], sets[i].series.SubRows(r.w.n-window, r.w.n), r.traced); err != nil {
			return err
		}
		starts = append(starts, time.Since(t0).Seconds())
	}
	defer b.close()
	d := sets[0]
	r.set("setup_s", "s", setupS+median(starts), datasets+serverStarts)
	r.note("setup", map[string]any{"data_s": setupS, "server_s": starts})
	c, err := startClient()
	if err != nil {
		return err
	}
	defer c.stop() //nolint:errcheck // a failed segment already returned its error

	fixed := r.seconds * (1 - r.w.fitShare)
	if r.traced {
		fixed = math.Max(fixed-ladderBudget, minFixed)
	}
	ingest := d.series.SubRows(r.w.n, d.series.Rows)
	rows := make([][]float64, int(fixed*ingestRate))
	for i := range rows {
		rows[i] = ingest.Row(i)
	}
	t0 := time.Now()
	res, err := c.run(segment{Base: b.base, P: r.w.p, Seed: r.seed, Dur: fixed, FRate: forecastRate, Writes: true, Rows: rows})
	if err != nil {
		return err
	}
	for i := 0; i < int(fixed); i++ {
		from := t0.Add(time.Duration(i) * time.Second)
		r.heapWins = append(r.heapWins, heapWindow{"serve", from, from.Add(time.Second)})
	}
	if err := r.fixedMetrics(b, res); err != nil {
		return err
	}
	if !r.traced {
		return nil
	}
	// The ladder sends reads only, after the last refit has finished, so
	// it finds the serving capacity; refit contention shows in the
	// fixed-rate latencies.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := b.mgr.Quiesce(ctx); err != nil {
		return err
	}
	if err := r.runLadder(c, b.base); err != nil {
		return err
	}
	return r.serveLayers(b, d)
}

// fixedMetrics turns the fixed-rate phase's outcomes into the serving
// metrics and checks sampled responses.
func (r *run) fixedMetrics(b *benchServer, res *segmentResult) error {
	outs := res.Outcomes
	var lat [nKinds][]float64
	failed, hits, topks := 0, 0, 0
	var exposition []float64
	for _, o := range outs {
		if o.Failed {
			failed++
			continue
		}
		lat[o.Kind] = append(lat[o.Kind], o.latencyMs())
		switch o.Kind {
		case kTopK:
			topks++
			if o.CacheHit {
				hits++
			}
		case kScrape:
			exposition = append(exposition, float64(o.Size)/1024)
		}
	}
	r.count(len(outs), failed)
	r.note("fixed_phase", map[string]any{"sent": len(outs), "failed": failed, "late_ms_max": res.LateMsMax, "backlog": res.Backlog})
	for _, k := range []struct {
		kind kind
		name string
	}{{kForecast, "forecast"}, {kTopK, "topk"}, {kIngest, "ingest"}} {
		l, err := summarize(lat[k.kind])
		if err != nil {
			return fmt.Errorf("%s latency: %w", k.name, err)
		}
		if k.kind == kForecast {
			r.set("forecast_p50_ms", "ms", l.P50, l.N)
		}
		r.set(k.name+"_p99_ms", "ms", l.P99, l.N)
	}
	vers := b.vers.snapshot()
	lags := modelLags(outs, vers)
	if len(lags) == 0 {
		return fmt.Errorf("no ingested row was answered by a new version")
	}
	r.set("model_lag_s", "s", median(lags), len(lags))
	r.checkResponses(outs, vers)

	var refitMs, iters []float64
	for _, v := range sortedKeys(vers) {
		if info := vers[v]; info.refitMs > 0 {
			refitMs = append(refitMs, info.refitMs)
			iters = append(iters, float64(info.iters))
		}
	}
	r.set("stream.refit_ms", "ms", median(refitMs), len(refitMs))
	r.set("stream.refit_iters", "count", median(iters), len(iters))
	r.set("serve.cache_hit_ratio", "ratio", float64(hits)/float64(topks), topks)
	r.set("telemetry.scrape_ms", "ms", median(lat[kScrape]), len(lat[kScrape]))
	r.set("telemetry.exposition_kb", "KiB", median(exposition), len(exposition))
	r.set("gen.late_ms_max", "ms", res.LateMsMax, len(outs))
	return nil
}

// modelLags measures, for every ingested row, the time from the due time
// of its ingest until the first forecast answered by a version whose refit
// covered it. Rows that no version covered before the phase ended are left
// out. Every row counts, not only the rows that complete a refit cadence:
// with refits longer than the cadence they run back to back, and rows
// reaching the server at every point of a refit give a median that does not
// depend on how the cadence happens to line up with the refits.
func modelLags(outs []outcome, vers map[int]versionInfo) []float64 {
	var ingests, forecasts []outcome
	for _, o := range outs {
		switch {
		case o.Failed:
		case o.Kind == kIngest:
			ingests = append(ingests, o)
		case o.Kind == kForecast:
			forecasts = append(forecasts, o)
		}
	}
	sort.Slice(forecasts, func(a, b int) bool { return forecasts[a].Done < forecasts[b].Done })
	sort.Slice(ingests, func(a, b int) bool { return ingests[a].Total < ingests[b].Total })
	// The first forecast covering a row count never comes earlier for a
	// larger count, so one pass over the forecasts serves every ingest.
	var lags []float64
	f := 0
	for _, o := range ingests {
		for f < len(forecasts) && vers[forecasts[f].Version].fitted < o.Total {
			f++
		}
		if f == len(forecasts) {
			break
		}
		lags = append(lags, float64(forecasts[f].Done-o.Due)/1e9)
	}
	return lags
}

// checkResponses compares sampled forecast responses bit for bit with
// model.Predictor.Forecast, and sampled top-k responses with graph TopK,
// each on the model version the response reports.
func (r *run) checkResponses(outs []outcome, vers map[int]versionInfo) {
	graphs := map[int]*graph.CSR{}
	for _, o := range outs {
		if o.Resp == nil {
			continue
		}
		info, ok := vers[o.Version]
		if !ok {
			r.fail("%s response reports unknown version %d", paths[o.Kind], o.Version)
			continue
		}
		var err error
		if o.Kind == kForecast {
			err = checkForecast(info.entry, o.Req, o.Resp)
		} else {
			g := graphs[o.Version]
			if g == nil {
				if g, err = buildGraph(info.entry); err == nil {
					graphs[o.Version] = g
				}
			}
			if err == nil {
				err = checkTopK(g, o.Req, o.Resp)
			}
		}
		if err != nil {
			r.fail("%s at version %d: %v", paths[o.Kind], o.Version, err)
		}
	}
}

// checkForecast recomputes a forecast with the version's predictor and
// compares every value's bits.
func checkForecast(e *serve.Entry, req, resp []byte) error {
	var q serve.ForecastRequest
	var a serve.ForecastResponse
	if err := json.Unmarshal(req, &q); err != nil {
		return err
	}
	if err := json.Unmarshal(resp, &a); err != nil {
		return err
	}
	h := mat.NewDense(len(q.History), len(q.History[0]))
	for i, row := range q.History {
		copy(h.Row(i), row)
	}
	want, err := e.Pred.Forecast(h, q.Horizon)
	if err != nil {
		return err
	}
	if len(a.Forecast) != want.Rows {
		return fmt.Errorf("%d forecast rows, want %d", len(a.Forecast), want.Rows)
	}
	for i, row := range a.Forecast {
		if n, _ := bitMismatches(row, want.Row(i)); n > 0 || len(row) != want.Cols {
			return fmt.Errorf("forecast row %d differs from Predictor.Forecast", i)
		}
	}
	return nil
}

// buildGraph builds the version's Granger graph directly from its
// predictor's edges.
func buildGraph(e *serve.Entry) (*graph.CSR, error) {
	edges, err := e.Pred.Edges(topkTol, false)
	if err != nil {
		return nil, err
	}
	ge := make([]graph.Edge, len(edges))
	for i, x := range edges {
		ge[i] = graph.Edge{From: x.Source, To: x.Target, Weight: x.Weight}
	}
	return graph.Build(e.Pred.P(), ge, graph.DupLast)
}

func checkTopK(g *graph.CSR, req, resp []byte) error {
	var q serve.GraphTopKRequest
	var a serve.GraphTopKResponse
	if err := json.Unmarshal(req, &q); err != nil {
		return err
	}
	if err := json.Unmarshal(resp, &a); err != nil {
		return err
	}
	want := g.TopK(q.K)
	if a.Nodes != g.N || a.TotalEdges != g.NumEdges() || len(a.Edges) != len(want) {
		return fmt.Errorf("top-k shape differs from graph TopK")
	}
	for i, e := range want {
		got := a.Edges[i]
		if got.Source != e.From || got.Target != e.To || math.Float64bits(got.Weight) != math.Float64bits(e.Weight) {
			return fmt.Errorf("top-k edge %d differs from graph TopK", i)
		}
	}
	return nil
}

// runLadder raises the forecast rate geometrically until a step fails,
// then bisects between the last passing and the first failing rate. Each
// step lasts long enough for at least 1,000 forecasts, so its p99 has ten
// samples beyond it.
func (r *run) runLadder(c *client, base string) error {
	lo, hi := 0.0, 0.0
	try := func(rate float64) error {
		s, err := r.ladderStep(c, base, rate)
		if err != nil {
			return err
		}
		r.ladder = append(r.ladder, s)
		if s.passes() {
			lo = rate
		} else {
			hi = rate
		}
		return nil
	}
	for rate, i := float64(ladderStart), 0; i < ladderSteps && hi == 0; rate, i = rate*ladderFactor, i+1 {
		if err := try(rate); err != nil {
			return err
		}
	}
	for i := 0; i < bisections && lo > 0 && hi > 0; i++ {
		if err := try(math.Sqrt(lo * hi)); err != nil {
			return err
		}
	}
	r.set("forecast_max_rps", "1/s", maxRate(r.ladder), len(r.ladder))
	return nil
}

// ladderStep runs one rate step and returns its accounting. A step falls
// behind when more than the latency limit's worth of its requests were
// still waiting for a connection when it ended.
func (r *run) ladderStep(c *client, base string, rate float64) (step, error) {
	res, err := c.run(segment{Base: base, P: r.w.p, Dur: math.Max(stepSeconds, 1000/rate), FRate: rate})
	if err != nil {
		return step{}, err
	}
	s := step{Rate: rate, LateMsMax: res.LateMsMax, Backlog: res.Backlog}
	var lat []float64
	failed := 0
	for _, o := range res.Outcomes {
		if o.Failed {
			failed++
		}
		if o.Kind != kForecast {
			continue
		}
		s.Sent++
		switch {
		case o.Status == http.StatusTooManyRequests || o.Status == http.StatusServiceUnavailable:
			s.Refused++
		case o.Failed:
			s.Failed++
		default:
			s.Succeeded++
			lat = append(lat, o.latencyMs())
		}
	}
	r.count(len(res.Outcomes), failed)
	s.Behind = float64(s.Backlog) > rate*p99LimitMs/1000
	if l, err := summarize(lat); err == nil {
		s.Latency = l
	}
	return s, nil
}

// serveLayers reports the serving-side per-layer metrics of a traced run:
// tracer counters from the serve phase, then direct measurements of the
// model, handler and graph layers against the current version while the
// server is otherwise idle.
func (r *run) serveLayers(b *benchServer, d *dataset) error {
	batches := b.tr.Counter("serve/forecast_batches")
	r.set("serve.batch_size_mean", "count", float64(b.tr.Counter("serve/forecast_requests_batched"))/math.Max(1, float64(batches)), int(batches))
	r.set("serve.rejected", "count", float64(b.tr.Counter("serve/rejected")), 1)
	if ratio, ok := scrapeGauge(b, "uoivar_stream_cell_hit_ratio"); ok {
		r.set("stream.cells_reused_ratio", "ratio", ratio, 1)
	} else {
		return fmt.Errorf("no uoivar_stream_cell_hit_ratio on /metrics")
	}

	e := b.reg.Get(modelName)
	hist := d.series.SubRows(r.w.n-historyRows, r.w.n)
	const reps = 2000
	pred := make([]float64, reps)
	for i := range pred {
		t0 := time.Now()
		if _, err := e.Pred.ForecastBatch([]*mat.Dense{hist}, horizon); err != nil {
			return err
		}
		pred[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	predUs := median(pred)
	r.set("model.predict_us", "us", predUs, reps)

	// Distinct histories keep the response cache out of the timing.
	bodies := make([][]byte, reps)
	for i := range bodies {
		rows := make([][]float64, hist.Rows)
		for j := range rows {
			rows[j] = hist.Row(j)
		}
		rows[0] = append([]float64(nil), rows[0]...)
		rows[0][0] += float64(i+1) * 1e-9
		var err error
		if bodies[i], err = json.Marshal(serve.ForecastRequest{Model: modelName, History: rows, Horizon: horizon}); err != nil {
			return err
		}
	}
	h := b.srv.Handler()
	handler := make([]float64, 0, reps)
	for _, body := range bodies {
		req := httptest.NewRequest(http.MethodPost, "/v1/forecast", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		handler = append(handler, float64(time.Since(t0).Nanoseconds())/1e6)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("direct forecast: status %d", rec.Code)
		}
	}
	r.set("serve.overhead_ms", "ms", median(handler)-predUs/1e3, reps)

	build := make([]float64, 200)
	for i := range build {
		t0 := time.Now()
		if _, err := buildGraph(e); err != nil {
			return err
		}
		build[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	r.set("graph.build_ms", "ms", median(build), len(build))
	return nil
}

// scrapeGauge reads one gauge from the server's /metrics exposition.
func scrapeGauge(b *benchServer, name string) (float64, bool) {
	resp, err := http.Get(b.base + "/metrics")
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	exp, err := telemetry.ParseExposition(resp.Body)
	if err != nil {
		return 0, false
	}
	return exp.Value(name, map[string]string{"model": modelName})
}
