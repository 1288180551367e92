package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"uoivar/internal/resample"
	"uoivar/internal/serve"
)

// The load generator runs in a child process (this binary with --client)
// so that the server's refits and handlers cannot starve the dispatcher:
// the operating system schedules the two processes, and the server's CPU
// use shows as server latency, not as a late client. The parent sends one
// segment per line on the child's stdin and reads one result per line
// from its stdout.

type kind int

const (
	kForecast kind = iota
	kTopK
	kIngest
	kScrape
	nKinds
)

var paths = [nKinds]string{"/v1/forecast", "/v1/graph/topk", "/v1/ingest", "/metrics"}

// segment is one stretch of open-loop traffic: forecasts at FRate and
// top-k queries, plus one-row ingests of Rows and /metrics scrapes when
// Writes is set.
type segment struct {
	Base   string      `json:"base"`
	P      int         `json:"p"`
	Seed   uint64      `json:"seed"`
	Dur    float64     `json:"dur"`
	FRate  float64     `json:"frate"`
	Writes bool        `json:"writes"`
	Rows   [][]float64 `json:"rows,omitempty"`
}

// segmentResult is a segment's outcomes with the dispatcher's health:
// LateMsMax is how far behind schedule it handed out a request at worst;
// Backlog counts forecasts due in the segment that no connection had
// picked up when the segment ended.
type segmentResult struct {
	LateMsMax float64   `json:"late_ms_max"`
	Backlog   int       `json:"backlog"`
	Outcomes  []outcome `json:"outcomes"`
}

// outcome is one answered (or failed) request. Times are nanoseconds from
// the segment's start; requests are timed from their due time.
type outcome struct {
	Kind     kind   `json:"k"`
	Due      int64  `json:"due"`
	Done     int64  `json:"done"`
	Status   int    `json:"st"`
	Failed   bool   `json:"f,omitempty"`
	Version  int    `json:"v,omitempty"` // forecast and top-k responses
	Total    int64  `json:"t,omitempty"` // ingest responses: rows ingested so far
	CacheHit bool   `json:"hit,omitempty"`
	Size     int    `json:"sz"`
	Req      []byte `json:"req,omitempty"` // kept for sampled responses
	Resp     []byte `json:"resp,omitempty"`
}

func (o outcome) latencyMs() float64 { return float64(o.Done-o.Due) / 1e6 }

// job is one scheduled request of a segment.
type job struct {
	kind kind
	due  time.Duration // from the segment's start
	seq  int           // position within its kind over the whole phase
	row  int           // ingest: row of the segment's Rows
	body []byte
}

// loadgen is the child's open-loop client: a dispatcher hands requests to
// at most nproc connections at their due times.
type loadgen struct {
	clients []*http.Client
	rng     *resample.RNG
	seq     [nKinds]int
	topk    [][]byte
}

func newLoadgen(seed uint64) *loadgen {
	g := &loadgen{rng: resample.NewRNG(seed)}
	for i := 0; i < runtime.NumCPU(); i++ {
		g.clients = append(g.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	for _, k := range []int{5, 10, 20} {
		b, _ := json.Marshal(serve.GraphTopKRequest{Model: modelName, K: k, Tol: topkTol})
		g.topk = append(g.topk, b)
	}
	return g
}

// schedule lays out a segment's requests, each stream at evenly spaced
// due times.
func (g *loadgen) schedule(s segment) ([]job, error) {
	var jobs []job
	add := func(k kind, rate float64) {
		for i := 0; i < int(s.Dur*rate); i++ {
			due := time.Duration((float64(i) + 0.5) / rate * float64(time.Second))
			jobs = append(jobs, job{kind: k, due: due, seq: g.seq[k], row: i})
			g.seq[k]++
		}
	}
	add(kForecast, s.FRate)
	add(kTopK, topkRate)
	if s.Writes {
		if len(s.Rows) < int(s.Dur*ingestRate) {
			return nil, fmt.Errorf("segment has %d rows to ingest, needs %d", len(s.Rows), int(s.Dur*ingestRate))
		}
		add(kIngest, ingestRate)
		add(kScrape, 1)
	}
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].due < jobs[b].due })
	return jobs, nil
}

// body makes a job's request body at dispatch: a fresh random history for
// a forecast, one of the repeating top-k bodies, or the next row to ingest.
func (g *loadgen) body(s segment, j job) []byte {
	var v any
	switch j.kind {
	case kForecast:
		h := make([][]float64, historyRows)
		for i := range h {
			h[i] = make([]float64, s.P)
			for c := range h[i] {
				h[i][c] = g.rng.NormFloat64()
			}
		}
		v = serve.ForecastRequest{Model: modelName, History: h, Horizon: horizon}
	case kTopK:
		return g.topk[j.seq%len(g.topk)]
	case kIngest:
		v = serve.IngestRequest{Model: modelName, Rows: [][]float64{s.Rows[j.row]}}
	default:
		return nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of finite floats always encode
	}
	return b
}

// runSegment sends a segment's requests open-loop and collects outcomes.
func (g *loadgen) runSegment(s segment) (*segmentResult, error) {
	jobs, err := g.schedule(s)
	if err != nil {
		return nil, err
	}
	// Sized to the number of sends, so the dispatcher never blocks.
	queue := make(chan int, len(jobs))
	picked := make([]time.Duration, len(jobs))
	results := make([][]outcome, len(g.clients))
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for c := range g.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range queue {
				picked[i] = time.Since(start)
				results[c] = append(results[c], g.do(g.clients[c], s.Base, start, jobs[i]))
				jobs[i].body = nil
			}
		}(c)
	}
	res := &segmentResult{}
	for i, j := range jobs {
		if d := time.Until(start.Add(j.due)); d > 0 {
			time.Sleep(d)
		}
		res.LateMsMax = math.Max(res.LateMsMax, float64(time.Since(start)-j.due)/1e6)
		jobs[i].body = g.body(s, j)
		queue <- i
	}
	close(queue)
	wg.Wait()
	end := time.Duration(s.Dur * float64(time.Second))
	for i, j := range jobs {
		if j.kind == kForecast && picked[i] > end {
			res.Backlog++
		}
	}
	for _, rs := range results {
		res.Outcomes = append(res.Outcomes, rs...)
	}
	return res, nil
}

// do sends one request and classifies the answer.
func (g *loadgen) do(c *http.Client, base string, start time.Time, j job) outcome {
	o := outcome{Kind: j.kind, Due: int64(j.due)}
	var resp *http.Response
	var err error
	if j.kind == kScrape {
		resp, err = c.Get(base + paths[j.kind])
	} else {
		resp, err = c.Post(base+paths[j.kind], "application/json", bytes.NewReader(j.body))
	}
	if err != nil {
		o.Done, o.Failed = int64(time.Since(start)), true
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.Done = int64(time.Since(start))
	o.Status, o.Size = resp.StatusCode, len(body)
	if err != nil || resp.StatusCode != http.StatusOK {
		o.Failed = true
		return o
	}
	switch j.kind {
	case kForecast, kTopK:
		o.Version = jsonInt(body, `"version":`)
		o.CacheHit = resp.Header.Get("X-Cache") == "hit"
		if j.seq%sampleEvery == 0 {
			o.Req, o.Resp = j.body, body
		}
	case kIngest:
		o.Total = int64(jsonInt(body, `"total_rows":`))
	}
	return o
}

// jsonInt reads the integer following key in a flat JSON object (-1 if
// absent), without decoding the whole body on the request path.
func jsonInt(body []byte, key string) int {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return -1
	}
	rest := body[i+len(key):]
	end := 0
	for end < len(rest) && (rest[end] == '-' || (rest[end] >= '0' && rest[end] <= '9')) {
		end++
	}
	v, err := strconv.Atoi(string(rest[:end]))
	if err != nil {
		return -1
	}
	return v
}

// clientMain is the child process: it runs segments from stdin until
// stdin closes.
func clientMain() error {
	dec := json.NewDecoder(bufio.NewReader(os.Stdin))
	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	var g *loadgen
	for {
		var s segment
		if err := dec.Decode(&s); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		if g == nil {
			g = newLoadgen(s.Seed)
		}
		res, err := g.runSegment(s)
		if err != nil {
			return err
		}
		if err := enc.Encode(res); err != nil {
			return err
		}
		if err := out.Flush(); err != nil {
			return err
		}
	}
}

// client is the parent's handle on the load-generator process.
type client struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	enc   *json.Encoder
	dec   *json.Decoder
}

func startClient() (*client, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--client")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start load generator: %w", err)
	}
	return &client{cmd: cmd, stdin: stdin, enc: json.NewEncoder(stdin), dec: json.NewDecoder(bufio.NewReader(stdout))}, nil
}

// run sends one segment and waits for its result.
func (c *client) run(s segment) (*segmentResult, error) {
	if err := c.enc.Encode(s); err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	var res segmentResult
	if err := c.dec.Decode(&res); err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	return &res, nil
}

// stop closes the child's stdin and waits for it to exit.
func (c *client) stop() error {
	c.stdin.Close()
	return c.cmd.Wait()
}
