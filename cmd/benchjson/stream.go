package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"uoivar/internal/model"
	"uoivar/internal/resample"
	"uoivar/internal/serve"
	"uoivar/internal/stream"
	"uoivar/internal/uoi"
	"uoivar/internal/varsim"
)

// benchStream measures the streaming layer's closed-loop ingest throughput
// through the HTTP server (ServingResult row).
func benchStream(report *Report, short bool) error {
	p, n := 8, 420
	b1, b2, q := 6, 4, 5
	if short {
		p, n = 4, 260
		b1, b2, q = 4, 3, 4
	}
	rng := resample.NewRNG(31)
	vm := varsim.GenerateStable(rng, p, 1, nil)
	long := vm.Simulate(rng.Derive(1), n, 60)
	w1 := long.SubRows(0, n-n/8)
	base := &uoi.VARConfig{Order: 1, B1: b1, B2: b2, Q: q, Seed: 23}

	// Ingest throughput: closed-loop POST /v1/ingest at fixed concurrency,
	// refits off (cadence 0) so the row isolates the buffered-append path —
	// refits run in the background and never block an ingest anyway.
	res, err := uoi.VAR(w1, base)
	if err != nil {
		return err
	}
	reg := serve.NewRegistry()
	if _, err := reg.Set("bench", model.FromVAR(res, base), ""); err != nil {
		return err
	}
	mgr := stream.NewManager(reg, stream.Options{Window: 4096})
	s := serve.New(serve.Config{Registry: reg, Streams: mgr, CacheEntries: -1, MaxInflight: 64})
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer s.Close()
	url := "http://" + addr + "/v1/ingest"

	const conc, batch = 8, 16
	total := 400
	if short {
		total = 100
	}
	bodies := make([][]byte, total)
	brng := resample.NewRNG(77)
	for i := range bodies {
		rows := make([][]float64, batch)
		for r := range rows {
			rows[r] = make([]float64, p)
			for c := range rows[r] {
				rows[r][c] = brng.NormFloat64()
			}
		}
		b, err := json.Marshal(serve.IngestRequest{Model: "bench", Rows: rows})
		if err != nil {
			return err
		}
		bodies[i] = b
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conc + 8}}
	var next atomic.Int64
	latencies := make([]float64, total)
	var wg sync.WaitGroup
	var firstErr atomic.Value
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[i]))
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for keep-alive
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					firstErr.CompareAndSwap(nil, fmt.Errorf("stream bench: status %d", resp.StatusCode))
					return
				}
				latencies[i] = time.Since(t0).Seconds() * 1e3
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if err, _ := firstErr.Load().(error); err != nil {
		return err
	}
	sort.Float64s(latencies)
	row := ServingResult{
		Name:        fmt.Sprintf("stream/ingest-c%d-b%d", conc, batch),
		Concurrency: conc,
		Requests:    total,
		QPS:         float64(total) / wall.Seconds(),
		P50Ms:       latencies[total/2],
		P99Ms:       latencies[total*99/100],
		Coalescing:  1,
	}
	report.Serving = append(report.Serving, row)
	fmt.Fprintf(os.Stderr, "%-40s %10.0f qps  p50 %6.2fms  p99 %6.2fms (%d rows/request)\n",
		row.Name, row.QPS, row.P50Ms, row.P99Ms, batch)
	return nil
}
