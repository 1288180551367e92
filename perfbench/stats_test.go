package main

import (
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"

	"uoivar/internal/mat"
	"uoivar/internal/model"
	"uoivar/internal/serve"
)

func TestQuantileIsExactNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median = %g, want 2 (nearest rank, no interpolation)", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestSummarizeNeedsTenSamplesBeyondP99(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	if _, err := summarize(samples(999)); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("999 samples: err = %v, want errTooFewSamples", err)
	}
	l, err := summarize(samples(1000))
	if err != nil {
		t.Fatal(err)
	}
	if l.N != 1000 || l.P50 != 500 || l.P99 != 990 {
		t.Fatalf("summarize(1..1000) = %+v, want n=1000 p50=500 p99=990", l)
	}
}

func TestEdgeF1(t *testing.T) {
	truth := mat.NewDenseData(3, 3, []float64{
		0.3, 0.2, 0,
		0, 0.3, 0.4,
		0.1, 0, 0.3,
	})
	if f := edgeF1(truth, truth, 0.05); f != 1 {
		t.Errorf("F1 of the truth against itself = %g, want 1", f)
	}
	// One true edge missed (2→0 below threshold), one false edge (0→2);
	// diagonal entries never count.
	est := mat.NewDenseData(3, 3, []float64{
		9, 0.2, 0.3,
		0, 9, 0.4,
		0.01, 0, 9,
	})
	if f, want := edgeF1(truth, est, 0.05), 2*2.0/(2*2+1+1); f != want {
		t.Errorf("F1 = %g, want %g", f, want)
	}
	if f := edgeF1(truth, mat.NewDense(3, 3), 0.05); f != 0 {
		t.Errorf("F1 of an empty estimate = %g, want 0", f)
	}
}

func TestMaxRatePicksHighestPassingStep(t *testing.T) {
	ok := func(rate, p99 float64) step {
		return step{Rate: rate, Sent: 1000, Succeeded: 1000, Latency: latency{N: 1000, P50: 1, P99: p99}}
	}
	behind := ok(3000, 10)
	behind.Behind = true
	failed := ok(2500, 10)
	failed.Failed, failed.Succeeded = 1, 999
	refused := ok(2200, 10)
	refused.Refused, refused.Succeeded = 1, 999
	steps := []step{ok(1000, 5), ok(1250, 8), behind, failed, refused, ok(2000, 30), ok(1500, 24.9)}
	if got := maxRate(steps); got != 1500 {
		t.Fatalf("maxRate = %g, want 1500", got)
	}
	if got := maxRate([]step{ok(1000, 26)}); got != 0 {
		t.Fatalf("maxRate with no passing step = %g, want 0", got)
	}
}

func TestPerturbedCoefficientTripsChecks(t *testing.T) {
	beta := []float64{0.5, -0.25, 0, 1e-3}
	bumped := append([]float64(nil), beta...)
	bumped[1] = math.Nextafter(bumped[1], 0)
	if coefHash(beta) != coefHash(append([]float64(nil), beta...)) {
		t.Fatal("equal coefficients hash differently")
	}
	if coefHash(beta) == coefHash(bumped) {
		t.Fatal("a one-ulp change left the coefficient hash unchanged")
	}
	if n, d := bitMismatches(beta, bumped); n != 1 || d == 0 || d > 1e-15 {
		t.Fatalf("bitMismatches = %d, %g; want 1 tiny difference", n, d)
	}

	art := &model.Artifact{
		Meta: model.Meta{Schema: model.Schema, Kind: model.KindVAR, P: 2, Order: 1, Intercept: true},
		A:    []*mat.Dense{mat.NewDenseData(2, 2, []float64{0.5, 0.1, -0.2, 0.3})},
		Mu:   []float64{0.01, -0.02},
	}
	reg := serve.NewRegistry()
	e, err := reg.Set(modelName, art, "")
	if err != nil {
		t.Fatal(err)
	}
	hist := [][]float64{{1, 2}, {0.5, -1}}
	req, _ := json.Marshal(serve.ForecastRequest{Model: modelName, History: hist, Horizon: 3})
	want, err := e.Pred.Forecast(mat.NewDenseData(2, 2, []float64{1, 2, 0.5, -1}), 3)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, want.Rows)
	for i := range rows {
		rows[i] = append([]float64(nil), want.Row(i)...)
	}
	good, _ := json.Marshal(serve.ForecastResponse{Model: modelName, Version: e.Version, Horizon: 3, Forecast: rows})
	if err := checkForecast(e, req, good); err != nil {
		t.Fatalf("exact forecast rejected: %v", err)
	}
	rows[2][1] = math.Nextafter(rows[2][1], math.Inf(1))
	bad, _ := json.Marshal(serve.ForecastResponse{Model: modelName, Version: e.Version, Horizon: 3, Forecast: rows})
	if err := checkForecast(e, req, bad); err == nil {
		t.Fatal("a forecast one ulp off passed the check")
	}

	g, err := buildGraph(e)
	if err != nil {
		t.Fatal(err)
	}
	topReq, _ := json.Marshal(serve.GraphTopKRequest{Model: modelName, K: 5, Tol: topkTol})
	var edges []serve.Edge
	for _, x := range g.TopK(5) {
		edges = append(edges, serve.Edge{Source: x.From, Target: x.To, Weight: x.Weight})
	}
	resp := serve.GraphTopKResponse{Model: modelName, Version: e.Version, Nodes: g.N, TotalEdges: g.NumEdges(), Edges: edges}
	body, _ := json.Marshal(resp)
	if err := checkTopK(g, topReq, body); err != nil {
		t.Fatalf("exact top-k rejected: %v", err)
	}
	resp.Edges[0].Weight = math.Nextafter(resp.Edges[0].Weight, 0)
	body, _ = json.Marshal(resp)
	if err := checkTopK(g, topReq, body); err == nil {
		t.Fatal("a top-k weight one ulp off passed the check")
	}
}

func TestJSONInt(t *testing.T) {
	body := []byte(`{"model":"net","version":12,"total_rows":-3}`)
	if v := jsonInt(body, `"version":`); v != 12 {
		t.Errorf("version = %d", v)
	}
	if v := jsonInt(body, `"total_rows":`); v != -3 {
		t.Errorf("total_rows = %d", v)
	}
	if v := jsonInt(body, `"missing":`); v != -1 {
		t.Errorf("missing = %d", v)
	}
}

func TestModelLagsTimeEveryRowToItsFirstCoveringForecast(t *testing.T) {
	const ms = int64(1e6)
	vers := map[int]versionInfo{1: {fitted: 0}, 2: {fitted: 514}, 3: {fitted: -1}, 4: {fitted: 516}}
	outs := []outcome{
		{Kind: kIngest, Due: 0 * ms, Total: 513},
		{Kind: kIngest, Due: 10 * ms, Total: 514},
		{Kind: kIngest, Due: 20 * ms, Total: 515},
		{Kind: kIngest, Due: 30 * ms, Total: 516},
		{Kind: kIngest, Due: 40 * ms, Total: 517}, // never covered
		{Kind: kForecast, Done: 50 * ms, Version: 1},
		{Kind: kForecast, Done: 70 * ms, Version: 3}, // unattributed
		{Kind: kForecast, Done: 60 * ms, Version: 2},
		{Kind: kForecast, Done: 80 * ms, Version: 4, Failed: true},
		{Kind: kForecast, Done: 90 * ms, Version: 4},
	}
	got := modelLags(outs, vers)
	want := []float64{0.060, 0.050, 0.070, 0.060}
	if len(got) != len(want) {
		t.Fatalf("modelLags = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("modelLags = %v, want %v", got, want)
		}
	}
}

func TestPeakHeapIsTheHungriestPhasesMedianWindowPeak(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	var samples []heapSample
	for ms, v := range map[int]float64{
		5: 10, 10: 30, 15: 12, // fit 1 peaks at 30
		25: 14, 30: 16, // fit 2 peaks at 16
		45: 90, 50: 18, // fit 3 peaks at 90, one transient
		105: 20, 110: 21, // serve second 1 peaks at 21
		205: 19, // serve second 2 peaks at 19
	} {
		samples = append(samples, heapSample{at(ms), v})
	}
	wins := []heapWindow{
		{"fit", at(0), at(20)}, {"fit", at(20), at(40)}, {"fit", at(40), at(60)},
		{"serve", at(100), at(200)}, {"serve", at(200), at(300)}, {"serve", at(300), at(400)}, // last holds no sample
	}
	got, n := peakHeap(samples, wins)
	if got != 30 || n != 5 {
		t.Fatalf("peakHeap = %g over %d windows, want 30 (median fit peak) over 5", got, n)
	}
	if got, n := peakHeap(samples, nil); !math.IsNaN(got) || n != 0 {
		t.Fatalf("peakHeap with no windows = %g over %d, want NaN over 0", got, n)
	}
}
