package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/jobd"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// opOut is what one closed-loop op returned and what its checks found.
type opOut struct {
	lat      time.Duration // POST sent → trailer read, or Load + Run
	firstRow time.Duration // POST sent → first NDJSON row read (HTTP ops)
	cells    int           // scored cells: /jobs cells, explored cells, or 1 scenario
	fail     string        // first failed check; "" when the op is correct
	digest   []byte        // canonical output, hashed into the run digest

	// Per-endpoint extras the post-run checks and the ledger read.
	jobRows  []jobd.ResultRow
	jobSum   jobd.Summary
	frontier *frontierOut
}

type frontierOut struct {
	rounds []jobd.FrontierRound
	sum    jobd.FrontierSummary
	canon  []byte // NDJSON with the cache-accounting fields zeroed
}

func (o *opOut) failf(format string, args ...any) {
	if o.fail == "" {
		o.fail = fmt.Sprintf(format, args...)
	}
}

// post sends body and hands each NDJSON line to row; it records the op's
// latency and time to first row. The span brackets the call on the
// client side of the loopback connection.
func (e *env) post(ctx context.Context, path string, body []byte, o *opOut, row func(line []byte)) {
	_, sp := obs.StartSpan(ctx, "bench.post"+path)
	defer sp.End()
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.base+path, bytes.NewReader(body))
	if err != nil {
		o.failf("request: %v", err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(req)
	if err != nil {
		o.failf("POST %s: %v", path, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		o.failf("POST %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
		return
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			if o.firstRow == 0 {
				o.firstRow = time.Since(start)
			}
			row(line)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			o.failf("read %s stream: %v", path, err)
			break
		}
	}
	o.lat = time.Since(start)
}

// isTrailer reports whether an NDJSON line is the job's "done" trailer.
func isTrailer(line []byte) bool {
	var p struct {
		Done *bool `json:"done"`
	}
	return json.Unmarshal(line, &p) == nil && p.Done != nil
}

// runJobs executes one /jobs op. cold demands that every cell simulated.
func (e *env) runJobs(ctx context.Context, body []byte, wantCells int, cold bool) opOut {
	var o opOut
	trailers := 0
	e.post(ctx, "/jobs", body, &o, func(line []byte) {
		if isTrailer(line) {
			trailers++
			if err := json.Unmarshal(line, &o.jobSum); err != nil {
				o.failf("trailer: %v", err)
			}
			return
		}
		var r jobd.ResultRow
		if err := json.Unmarshal(line, &r); err != nil {
			o.failf("row: %v", err)
			return
		}
		o.jobRows = append(o.jobRows, r)
	})
	if o.fail != "" {
		return o
	}
	sort.Slice(o.jobRows, func(i, j int) bool { return o.jobRows[i].Cell < o.jobRows[j].Cell })
	var d bytes.Buffer
	for i, r := range o.jobRows {
		if r.Cell != i {
			o.failf("cell indexes not 0..%d", wantCells-1)
			break
		}
		if r.Err != "" || r.Scores == nil {
			o.failf("cell %d (%s): error %q", r.Cell, r.Proto, r.Err)
			continue
		}
		sc, err := r.Scores.Decode()
		if err != nil {
			o.failf("cell %d: %v", r.Cell, err)
			continue
		}
		if math.IsNaN(sc.Efficiency) || sc.Efficiency < 0 {
			o.failf("cell %d: efficiency %v", r.Cell, sc.Efficiency)
		}
		fmt.Fprintf(&d, "%d %s %+v\n", r.Cell, r.Proto, *r.Scores)
	}
	s := o.jobSum
	switch {
	case trailers != 1:
		o.failf("%d trailers", trailers)
	case !s.Done || s.Failed > 0:
		o.failf("trailer done=%v failed=%d", s.Done, s.Failed)
	case s.Cells != wantCells || len(o.jobRows) != wantCells:
		o.failf("want %d cells, trailer says %d, %d rows streamed", wantCells, s.Cells, len(o.jobRows))
	case s.Simulated+s.CacheHits != s.Cells:
		o.failf("simulated %d + cached %d != cells %d", s.Simulated, s.CacheHits, s.Cells)
	case cold && s.Simulated != s.Cells:
		o.failf("cold job simulated %d of %d cells", s.Simulated, s.Cells)
	}
	o.digest = d.Bytes()
	o.cells = len(o.jobRows)
	return o
}

// runFrontier executes one /frontier op. cold demands that every
// explored cell simulated, warm that none did.
func (e *env) runFrontier(ctx context.Context, body []byte, cold bool) opOut {
	var o opOut
	f := &frontierOut{}
	o.frontier = f
	trailers := 0
	e.post(ctx, "/frontier", body, &o, func(line []byte) {
		if isTrailer(line) {
			trailers++
			if err := json.Unmarshal(line, &f.sum); err != nil {
				o.failf("trailer: %v", err)
			}
			return
		}
		var r jobd.FrontierRound
		if err := json.Unmarshal(line, &r); err != nil {
			o.failf("round: %v", err)
			return
		}
		f.rounds = append(f.rounds, r)
	})
	if o.fail != "" {
		return o
	}
	s := f.sum
	evaluated := 0
	for _, r := range f.rounds {
		evaluated += r.Evaluated
	}
	switch {
	case trailers != 1:
		o.failf("%d trailers", trailers)
	case !s.Done || s.Err != "":
		o.failf("trailer done=%v error=%q", s.Done, s.Err)
	case s.Rounds != len(f.rounds) || s.CellsEvaluated != evaluated || s.CellsEvaluated == 0:
		o.failf("trailer rounds=%d evaluated=%d, streamed %d rounds with %d cells", s.Rounds, s.CellsEvaluated, len(f.rounds), evaluated)
	case s.CellsSimulated+s.CacheHits != s.CellsEvaluated:
		o.failf("simulated %d + cached %d != evaluated %d", s.CellsSimulated, s.CacheHits, s.CellsEvaluated)
	case cold && s.CellsSimulated != s.CellsEvaluated:
		o.failf("cold explore simulated %d of %d cells", s.CellsSimulated, s.CellsEvaluated)
	case !cold && s.CellsSimulated != 0:
		o.failf("warm explore simulated %d cells", s.CellsSimulated)
	case s.FrontierPoints != len(f.rounds[len(f.rounds)-1].Frontier):
		o.failf("trailer frontier_points %d != last round's %d", s.FrontierPoints, len(f.rounds[len(f.rounds)-1].Frontier))
	}
	if o.fail == "" {
		if err := checkFrontier(f.rounds[len(f.rounds)-1].Frontier); err != nil {
			o.failf("%v", err)
		}
	}
	f.canon = canonFrontier(f.rounds, s)
	o.digest = f.canon
	o.cells = s.CellsEvaluated
	return o
}

// canonFrontier renders the stream with the fields that legitimately
// differ between a cold and a warm pass (simulated vs cached counts,
// wall time) zeroed; everything else must match byte for byte.
func canonFrontier(rounds []jobd.FrontierRound, s jobd.FrontierSummary) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, r := range rounds {
		r.Simulated, r.CacheHits = 0, 0
		enc.Encode(r) //nolint:errcheck // plain values into a bytes.Buffer
	}
	s.CellsSimulated, s.CacheHits, s.ElapsedMS = 0, 0, 0
	enc.Encode(s) //nolint:errcheck // plain values into a bytes.Buffer
	return b.Bytes()
}

// checkFrontier verifies the reported frontier from its bit-exact
// coordinates: every point finite, and no point dominating another.
func checkFrontier(pts []jobd.FrontierPoint) error {
	if len(pts) == 0 {
		return fmt.Errorf("empty frontier")
	}
	type xy struct{ x, y float64 }
	v := make([]xy, len(pts))
	for i, p := range pts {
		x, err1 := fromHex(p.EfficiencyBits)
		y, err2 := fromHex(p.FriendlinessBits)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("frontier point %d: bad bits", i)
		}
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return fmt.Errorf("frontier point %d: non-finite (%v, %v)", i, x, y)
		}
		v[i] = xy{x, y}
	}
	for i, a := range v {
		for j, b := range v {
			if i != j && a.x >= b.x && a.y >= b.y && (a.x > b.x || a.y > b.y) {
				return fmt.Errorf("frontier point %d dominates point %d", i, j)
			}
		}
	}
	return nil
}

func fromHex(s string) (float64, error) {
	u, err := strconv.ParseUint(s, 16, 64)
	return math.Float64frombits(u), err
}

func hexf(v float64) string { return strconv.FormatUint(math.Float64bits(v), 16) }

// runScenario executes one scenario op through the same calls
// axiomsim -scenario makes.
func runScenario(ctx context.Context, doc []byte, loadTime *time.Duration) opOut {
	var o opOut
	start := time.Now()
	_, lsp := obs.StartSpan(ctx, "bench.scenario.load")
	spec, err := scenario.Load(bytes.NewReader(doc))
	lsp.End()
	if loadTime != nil {
		*loadTime += time.Since(start)
	}
	if err != nil {
		o.failf("load: %v", err)
		return o
	}
	rctx, rsp := obs.StartSpan(ctx, "bench.scenario.run")
	out, err := spec.RunContext(rctx)
	rsp.End()
	o.lat = time.Since(start)
	o.cells = 1
	if err != nil {
		o.failf("run %s: %v", spec.Name, err)
		return o
	}
	o.digest = outcomeDigest(out)
	if len(out.Flows) != len(spec.Flows) {
		o.failf("%s: %d flows in outcome, %d in spec", spec.Name, len(out.Flows), len(spec.Flows))
	}
	eff := out.Summary["efficiency"]
	if math.IsNaN(eff) || math.IsInf(eff, 0) || eff <= 0 {
		o.failf("%s: efficiency %v", spec.Name, eff)
	}
	share := 0.0
	for _, f := range out.Flows {
		share += f.Share
	}
	if math.Abs(share-1) > 1e-9 {
		o.failf("%s: flow shares sum to %v", spec.Name, share)
	}
	return o
}

// outcomeDigest renders an outcome bit-exactly (NaN-safe, map order
// fixed).
func outcomeDigest(out *scenario.Outcome) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s\n", out.Name, out.Model)
	for _, f := range out.Flows {
		fmt.Fprintf(&b, "%s %s %s %s\n", f.Protocol, hexf(f.AvgWindow), hexf(f.Goodput), hexf(f.Share))
	}
	keys := make([]string, 0, len(out.Summary))
	for k := range out.Summary {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s\n", k, hexf(out.Summary[k]))
	}
	return []byte(b.String())
}
