package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"cacheeval/internal/cache"
	"cacheeval/internal/core"
	"cacheeval/internal/model"
	"cacheeval/internal/server"
	"cacheeval/internal/workload"
)

const (
	// serviceClients is the closed loop's client count: each waits for its
	// reply before sending the next request.
	serviceClients = 2
	// scheduleLen is each client's request list length, far more than a
	// phase can issue.
	scheduleLen = 4000
	// memoWindow bounds how far back a repeat reaches into its own client's
	// fresh keys. Both clients together insert well under the server's
	// 256 memo entries in that span, so a repeat is a memo read.
	memoWindow = 32
	// pairEvery places a request both clients send at once (a flight
	// join) at the end of every block of pairEvery steps.
	pairEvery = 25
	// evalSamples is how many fresh evaluates per phase are re-run through
	// core.EvaluateContext.
	evalSamples = 3
	// spanSeconds caps the traced run's span phase, which only collects the
	// server's own span summaries.
	spanSeconds = 5 * time.Second
)

// serviceMixNames are the stream-cached mixes: single traces of equal
// length, so a request's cost does not hinge on which one the seed picks.
var serviceMixNames = []string{"VCCOM", "VSPICE", "FGO1", "CCOMP1"}

// blockKinds is the request mix of each block's single-client steps. The
// seed shuffles their order and picks their keys, never their proportions,
// so every seed and both clients issue the same work per block; the pair
// that ends the block then finds both clients about equally far along.
// "special" rotates through specialKinds from block to block.
var blockKinds = func() []string {
	b := []string{"evaluate", "evaluate", "evaluate", "evaluate", "sweep", "special"}
	for len(b) < pairEvery-1 {
		b = append(b, "repeat")
	}
	return b
}()

var specialKinds = []string{"job", "permuted", "stream"}

// svcRequest is one scheduled request. class is "repeat" or "fresh"; kind
// says which fresh request it is (evaluate, sweep, permuted, job, stream,
// join) or "repeat".
type svcRequest struct {
	class, kind string
	path        string
	body        []byte
	pair        int // 1-based pair index both clients send at once; 0 for none
	eval        *server.EvaluateRequest
}

// svcRecord is one issued request's outcome.
type svcRecord struct {
	req        *svcRequest
	status     int
	body       []byte
	lat        time.Duration
	jobEvents  int
	jobDropped int
	err        error
}

// keyedBody is a sync request ready to repeat.
type keyedBody struct {
	path string
	body []byte
}

// scheduleGen builds the seeded request lists.
type scheduleGen struct {
	traced bool
	mixes  map[string]workload.Mix
	used   map[string]bool
}

func serviceMixes() map[string]workload.Mix {
	out := map[string]workload.Mix{}
	for _, m := range workload.StandardMixes() {
		if slices.Contains(serviceMixNames, m.Name) {
			out[m.Name] = m
		}
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every value marshalled here is a plain struct
	}
	return b
}

// warmRequests are the set-up requests: one evaluate and one sweep per
// mix, which fill the server's stream cache with every mix the schedule
// uses under both limit semantics.
func (g *scheduleGen) warmRequests() []keyedBody {
	var out []keyedBody
	for _, name := range serviceMixNames {
		ev := server.EvaluateRequest{Mix: name, Trace: g.traced}
		sw := server.SweepRequest{Mixes: []string{name}, Sizes: []int{1024, 4096, 16384}, Trace: g.traced}
		out = append(out,
			keyedBody{"/v1/evaluate", mustJSON(ev)},
			keyedBody{"/v1/sweep", mustJSON(sw)})
		g.used[string(mustJSON(ev))] = true
		g.used[string(mustJSON(sw))] = true
	}
	return out
}

func (g *scheduleGen) pickMix(rng *rand.Rand) workload.Mix {
	return g.mixes[serviceMixNames[rng.IntN(len(serviceMixNames))]]
}

// freshEval returns an evaluate of a design no earlier request used. The
// replacement policy sits in the design itself, so the server runs the
// design verbatim and core.EvaluateContext can re-run it unchanged.
func (g *scheduleGen) freshEval(rng *rand.Rand, refLimit int) *server.EvaluateRequest {
	for try := 0; ; try++ {
		m := g.pickMix(rng)
		c := cache.Config{
			Size:     []int{1024, 2048, 4096, 8192, 16384, 32768, 65536}[rng.IntN(7)],
			LineSize: []int{16, 32}[rng.IntN(2)],
			Assoc:    []int{1, 2, 4, 8}[rng.IntN(4)],
			Repl:     []cache.Replacement{cache.LRU, cache.FIFO}[rng.IntN(2)],
		}
		d := cache.SystemConfig{PurgeInterval: m.Quantum}
		if rng.IntN(2) == 0 {
			c.Size /= 2
			d.Split, d.I, d.D = true, c, c
		} else {
			d.Unified = c
		}
		if try > 50 {
			d.PurgeInterval += 1000 * try // the design space is exhausted: vary the quantum
		}
		req := &server.EvaluateRequest{Design: d, Mix: m.Name, RefLimit: refLimit, Trace: g.traced}
		if k := string(mustJSON(req)); !g.used[k] {
			g.used[k] = true
			return req
		}
	}
}

// freshSweep returns a sweep over a size subset no earlier sweep used.
func (g *scheduleGen) freshSweep(rng *rand.Rand) *server.SweepRequest {
	for {
		m := g.pickMix(rng)
		idx := rng.Perm(len(model.CacheSizes))[:3]
		slices.Sort(idx)
		sizes := []int{model.CacheSizes[idx[0]], model.CacheSizes[idx[1]], model.CacheSizes[idx[2]]}
		req := &server.SweepRequest{Mixes: []string{m.Name}, Sizes: sizes, Trace: g.traced}
		if k := string(mustJSON(req)); !g.used[k] {
			g.used[k] = true
			return req
		}
	}
}

// schedule returns each client's request list for a seed. With traced
// set, every request asks for the server's span summary; the memo key
// excludes it, but the server then builds and encodes the summary, so the
// traced run's span phase does a little more work than the others.
func schedule(seed uint64, traced bool) (warm []keyedBody, lists [serviceClients][]svcRequest) {
	g := &scheduleGen{traced: traced, mixes: serviceMixes(), used: map[string]bool{}}
	warm = g.warmRequests()
	pairRng := rand.New(rand.NewPCG(seed, 0x7a11))
	var rngs [serviceClients]*rand.Rand
	var history [serviceClients][]keyedBody // own fresh sync requests, newest last
	var sweeps [serviceClients][]*server.SweepRequest
	for c := range rngs {
		rngs[c] = rand.New(rand.NewPCG(seed, uint64(c+1)))
	}
	for blk := 0; blk*pairEvery < scheduleLen; blk++ {
		for c := range lists {
			rng := rngs[c]
			kinds := slices.Clone(blockKinds)
			rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
			for _, kind := range kinds {
				if kind == "special" {
					kind = specialKinds[blk%len(specialKinds)]
				}
				var rq svcRequest
				switch kind {
				case "repeat":
					pool := warm
					if h := history[c]; len(h) > 0 {
						pool = h[max(0, len(h)-memoWindow):]
					}
					k := pool[rng.IntN(len(pool))]
					rq = svcRequest{class: "repeat", kind: kind, path: k.path, body: k.body}
				case "evaluate":
					ev := g.freshEval(rng, 0)
					rq = svcRequest{class: "fresh", kind: kind, path: "/v1/evaluate", body: mustJSON(ev), eval: ev}
				case "sweep":
					sw := g.freshSweep(rng)
					sweeps[c] = append(sweeps[c], sw)
					rq = svcRequest{class: "fresh", kind: kind, path: "/v1/sweep", body: mustJSON(sw)}
				case "permuted":
					// An earlier sweep with its sizes reordered: equivalent
					// work that the memo key does not recognise.
					orig := sweeps[c][rng.IntN(len(sweeps[c]))]
					sw := *orig
					sw.Sizes = []int{orig.Sizes[2], orig.Sizes[0], orig.Sizes[1]}
					if g.used[string(mustJSON(sw))] {
						sw = *g.freshSweep(rng)
					}
					g.used[string(mustJSON(sw))] = true
					rq = svcRequest{class: "fresh", kind: kind, path: "/v1/sweep", body: mustJSON(sw)}
				case "job":
					sw := g.freshSweep(rng)
					sw.Trace = false
					rq = svcRequest{class: "fresh", kind: kind, path: "/v1/jobs",
						body: mustJSON(server.JobRequest{Sweep: sw})}
				case "stream":
					// A new total-reference limit forces a stream
					// materialization, and an insert into the stream cache.
					ev := g.freshEval(rng, 100_000+1000*rng.IntN(150))
					rq = svcRequest{class: "fresh", kind: kind, path: "/v1/evaluate", body: mustJSON(ev), eval: ev}
				}
				if rq.class == "fresh" && kind != "job" {
					history[c] = append(history[c], keyedBody{rq.path, rq.body})
				}
				lists[c] = append(lists[c], rq)
			}
		}
		ev := g.freshEval(pairRng, 0)
		for c := range lists {
			lists[c] = append(lists[c], svcRequest{class: "fresh", kind: "join", path: "/v1/evaluate",
				body: mustJSON(ev), pair: blk + 1, eval: ev})
		}
	}
	return warm, lists
}

// barrier lines both clients up before a request they send at once. A
// client that stops releases the other, whose pair request is then skipped.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	arrived map[int]int
	gone    bool
}

func newBarrier() *barrier {
	b := &barrier{arrived: map[int]int{}}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) arrive(pair int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.arrived[pair]++
	b.cond.Broadcast()
	for b.arrived[pair] < serviceClients && !b.gone {
		b.cond.Wait()
	}
	return b.arrived[pair] >= serviceClients
}

func (b *barrier) leave() {
	b.mu.Lock()
	b.gone = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// svcInstance is one set-up: a server behind a loopback HTTP listener with
// its stream cache and memo warmed.
type svcInstance struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	warm   map[string][]byte // warm request key -> response body

	mu       sync.Mutex
	handlers map[string][]float64 // class -> handler µs (traced phase)
	tr       *tracer
}

func (s *svcInstance) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close()
}

func newSvcInstance(ctx context.Context, warm []keyedBody, tr *tracer) (*svcInstance, error) {
	s := &svcInstance{srv: server.New(server.Config{}), warm: map[string][]byte{},
		handlers: map[string][]float64{}, tr: tr}
	h := s.srv.Handler()
	if inner := h; tr != nil {
		// A span around the call into the server layer, so the HTTP
		// transport's share of a request is its client time minus this.
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			inner.ServeHTTP(w, r)
			end := time.Now()
			class := r.Header.Get("X-Bench-Class")
			parent, _ := strconv.Atoi(r.Header.Get("X-Bench-Span"))
			op, _ := strconv.Atoi(r.Header.Get("X-Bench-Op"))
			tr.record("server", class, parent, op, t0, end)
			s.mu.Lock()
			s.handlers[class] = append(s.handlers[class], float64(end.Sub(t0))/float64(time.Microsecond))
			s.mu.Unlock()
		})
	}
	s.ts = httptest.NewServer(h)
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients * 2}}
	for _, k := range warm {
		status, body, err := s.post(ctx, k.path, k.body, nil)
		if err != nil || status/100 != 2 {
			s.close()
			return nil, fmt.Errorf("warm-up %s: status %d: %v", k.path, status, err)
		}
		s.warm[k.path+string(k.body)] = body
	}
	return s, nil
}

func (s *svcInstance) post(ctx context.Context, path string, body []byte, hdr map[string]string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// job submits an async job and follows its NDJSON event stream to the end.
func (s *svcInstance) job(ctx context.Context, rq *svcRequest, hdr map[string]string, rec *svcRecord) {
	status, body, err := s.post(ctx, "/v1/jobs", rq.body, hdr)
	rec.status, rec.body, rec.err = status, body, err
	if err != nil || status != http.StatusAccepted {
		return
	}
	var acc server.JobAccepted
	if rec.err = json.Unmarshal(body, &acc); rec.err != nil {
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+acc.EventsURL, nil)
	if err != nil {
		rec.err = err
		return
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		rec.err = err
		return
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var ev struct {
			Type string `json:"type"`
			Data struct {
				Missed int `json:"missed"`
			} `json:"data"`
		}
		if err := dec.Decode(&ev); err != nil {
			rec.err = fmt.Errorf("job %s: event stream ended without done: %v", acc.ID, err)
			return
		}
		rec.jobEvents++
		switch ev.Type {
		case "gap":
			rec.jobDropped += ev.Data.Missed
		case "done":
			return
		case "failed", "canceled":
			rec.err = fmt.Errorf("job %s ended %s", acc.ID, ev.Type)
			return
		}
	}
}

// svcPhase is one measured phase's records, per client in issue order.
type svcPhase struct {
	records [serviceClients][]svcRecord
	wall    time.Duration
	before  server.MetricsSnapshot
	after   server.MetricsSnapshot
}

func (s *svcInstance) runPhase(ctx context.Context, lists [serviceClients][]svcRequest, seconds time.Duration) *svcPhase {
	ph := &svcPhase{before: s.srv.Metrics().Snapshot()}
	bar := newBarrier()
	t0 := time.Now()
	deadline := t0.Add(seconds)
	var wg sync.WaitGroup
	for c := range lists {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer bar.leave()
			for i := range lists[c] {
				if time.Now().After(deadline) {
					return
				}
				rq := &lists[c][i]
				if rq.pair > 0 && !bar.arrive(rq.pair) {
					continue
				}
				ph.records[c] = append(ph.records[c], s.issue(ctx, rq, c*scheduleLen+i))
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(t0)
	ph.after = s.srv.Metrics().Snapshot()
	return ph
}

// issue sends one request and times it from send to the last byte (for a
// job, to its done event).
func (s *svcInstance) issue(ctx context.Context, rq *svcRequest, op int) svcRecord {
	rec := svcRecord{req: rq}
	// Traced requests tell the handler wrapper their class and the span
	// its server span belongs under: the request's transport span, or for
	// a job the jobs span covering its submission and event stream.
	headers := func(parent int) map[string]string {
		if s.tr == nil {
			return nil
		}
		return map[string]string{"X-Bench-Class": rq.class, "X-Bench-Span": strconv.Itoa(parent), "X-Bench-Op": strconv.Itoa(op)}
	}
	sp := s.tr.begin("http", rq.class, 0, op)
	t0 := time.Now()
	if rq.kind == "job" {
		js := s.tr.begin("jobs", rq.kind, sp, op)
		s.job(ctx, rq, headers(js), &rec)
		s.tr.end(js)
	} else {
		rec.status, rec.body, rec.err = s.post(ctx, rq.path, rq.body, headers(sp))
	}
	rec.lat = time.Since(t0)
	s.tr.end(sp)
	return rec
}

func runServiceMix(ctx context.Context, env *runEnv) error {
	warm, lists := schedule(env.seed, false)
	var prev *svcInstance
	inst, err := repeatSetup(env, 5, func() (*svcInstance, error) {
		if prev != nil {
			prev.close()
		}
		var err error
		prev, err = newSvcInstance(ctx, warm, nil)
		return prev, err
	})
	if err != nil {
		return err
	}
	ph := inst.runPhase(ctx, lists, env.seconds)
	inst.close()
	env.untraced = ph.phase()
	checkService(ctx, env, ph, inst.warm, env.seed)
	reportService(env, ph)
	if !env.traced {
		return nil
	}
	// The traced phase sends the same bodies to a new server of the same
	// configuration, so it differs from the untraced one only by the
	// benchmark's spans and handler wrapper.
	tinst, err := newSvcInstance(ctx, warm, env.tr)
	if err != nil {
		return err
	}
	tph := tinst.runPhase(ctx, lists, env.seconds)
	tinst.close()
	env.tracedRun = tph.phase()
	checkService(ctx, env, tph, tinst.warm, env.seed+1)
	serviceLayers(env, tinst, ph, tph)
	// A third, shorter phase asks the server for its own span summaries
	// (assembly, stream materialization). It is kept out of the overhead
	// figure, since building and encoding the summaries is extra work.
	swarm, slists := schedule(env.seed, true)
	sinst, err := newSvcInstance(ctx, swarm, nil)
	if err != nil {
		return err
	}
	sph := sinst.runPhase(ctx, slists, min(env.seconds, spanSeconds))
	sinst.close()
	checkService(ctx, env, sph, sinst.warm, env.seed+2)
	serverSpanLayers(env, sinst, sph)
	return nil
}

// phase converts the records into the generic per-operation form: each
// request is one unit of work, repeats are part a and fresh requests
// part b.
func (ph *svcPhase) phase() phase {
	out := phase{wall: ph.wall}
	for _, recs := range ph.records {
		for _, r := range recs {
			rec := opRecord{dur: r.lat, work: 1}
			p := 1
			if r.req.class == "repeat" {
				p = 0
			}
			rec.parts[p] = []time.Duration{r.lat}
			out.ops = append(out.ops, rec)
		}
	}
	return out
}

func (ph *svcPhase) latencies(class string) []float64 {
	var xs []float64
	for _, recs := range ph.records {
		for _, r := range recs {
			if r.req.class == class {
				xs = append(xs, float64(r.lat)/float64(time.Millisecond))
			}
		}
	}
	return xs
}

// reportService prints the service figures a user of the service sees.
func reportService(env *runEnv, ph *svcPhase) {
	kinds := map[string]int{}
	for _, recs := range ph.records {
		for _, r := range recs {
			kinds[r.req.kind]++
		}
	}
	rep, fresh := ph.latencies("repeat"), ph.latencies("fresh")
	env.report["repeat_p50_ms"] = reportPercentile(rep, 0.50)
	env.report["repeat_p99_ms"] = reportPercentile(rep, 0.99)
	env.report["fresh_p50_ms"] = reportPercentile(fresh, 0.50)
	env.report["fresh_p90_ms"] = reportPercentile(fresh, 0.90)
	env.report["requests_by_kind"] = kinds
}

// serverSpans is the part of a response that carries the server's span
// summary (requests that set "trace": true).
type serverSpans struct {
	Cached, Shared bool
	Trace          []struct {
		Name       string  `json:"name"`
		DurationMS float64 `json:"duration_ms"`
		Refs       int64   `json:"refs"`
	} `json:"trace"`
}

// serviceLayers fills the service-mix per-layer metrics that come from the
// traced phase: server counters, handler and transport times, response
// sizes and jobs.
func serviceLayers(env *runEnv, inst *svcInstance, untraced, traced *svcPhase) {
	d := func(a, b int64) float64 { return float64(b - a) }
	b, a := traced.before, traced.after
	if h, m := d(b.MemoHits, a.MemoHits), d(b.MemoMisses, a.MemoMisses); h+m > 0 {
		env.layer["server.memo_hit_ratio"] = h / (h + m)
	}
	if h, m := d(b.StreamHits, a.StreamHits), d(b.StreamMisses, a.StreamMisses); h+m > 0 {
		env.layer["server.stream_hit_ratio"] = h / (h + m)
	}
	env.layer["server.flight_joins"] = d(b.FlightJoins, a.FlightJoins)
	env.layer["server.sim_runs"] = d(b.SimRuns, a.SimRuns)
	env.layer["server.errors"] = d(b.Errors, a.Errors)
	env.layer["server.timeouts"] = d(b.Timeouts, a.Timeouts)

	inst.mu.Lock()
	env.layer["server.handler_us.repeat"] = median(inst.handlers["repeat"])
	env.layer["server.handler_us.fresh"] = median(inst.handlers["fresh"])
	env.layer["http.roundtrip_us"] = median(traced.latencies("repeat"))*1000 - median(inst.handlers["repeat"])
	inst.mu.Unlock()

	var bytesBy = map[string][]float64{}
	for _, recs := range untraced.records {
		for _, r := range recs {
			bytesBy[r.req.class] = append(bytesBy[r.req.class], float64(len(r.body)))
		}
	}
	env.layer["server.encode_bytes.repeat"] = median(bytesBy["repeat"])
	env.layer["server.encode_bytes.fresh"] = median(bytesBy["fresh"])

	var jobMS []float64
	for _, recs := range traced.records {
		for _, r := range recs {
			if r.req.kind == "job" {
				env.addLayer("jobs.events", float64(r.jobEvents))
				env.addLayer("jobs.dropped_events", float64(r.jobDropped))
				jobMS = append(jobMS, float64(r.lat)/float64(time.Millisecond))
			}
		}
	}
	env.layer["jobs.submit_to_done_ms"] = median(jobMS)
}

// serverSpanLayers fills the per-layer metrics that come from the server's
// own span summaries, collected in the span phase: assembly and stream
// materialization of every fresh request that ran its simulation, and the
// generator's rate during set-up, which materializes every stream anew.
func serverSpanLayers(env *runEnv, inst *svcInstance, ph *svcPhase) {
	for _, recs := range ph.records {
		for _, r := range recs {
			if r.req.class != "fresh" || r.req.kind == "job" {
				continue
			}
			// The server's own span summary of a request that ran its
			// simulation: assembly and stream materialization.
			var resp serverSpans
			if json.Unmarshal(r.body, &resp) != nil || resp.Cached || resp.Shared {
				continue
			}
			for _, s := range resp.Trace {
				switch {
				case s.Name == "assemble":
					env.addLayer("assemble.busy_s", s.DurationMS/1000)
				case strings.HasPrefix(s.Name, "materialize:"):
					env.addLayer("materialize.busy_s", s.DurationMS/1000)
					env.addLayer("materialize.refs", float64(s.Refs))
				}
			}
		}
	}
	var genRefs, genS float64
	for _, body := range inst.warm {
		var resp serverSpans
		if json.Unmarshal(body, &resp) != nil {
			continue
		}
		for _, s := range resp.Trace {
			if strings.HasPrefix(s.Name, "materialize:") {
				genRefs += float64(s.Refs)
				genS += s.DurationMS / 1000
			}
		}
	}
	if genS > 0 {
		env.layer["workload.gen_refs_per_s"] = genRefs / genS
	}
}

// normalized strips the per-request envelope (cached, shared, elapsed_ms,
// trace) from a response body, leaving the answer itself.
func normalized(body []byte) (map[string]json.RawMessage, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, err
	}
	for _, k := range []string{"cached", "shared", "elapsed_ms", "trace"} {
		delete(m, k)
	}
	return m, nil
}

// checkService is the service correctness gate, run after the phase: every
// response 2xx; every repeat's answer equal to the first answer for its
// request; and a seeded sample of fresh evaluates equal to
// core.EvaluateContext on the same design and mix.
func checkService(ctx context.Context, env *runEnv, ph *svcPhase, warm map[string][]byte, seed uint64) {
	first := map[string]map[string]json.RawMessage{}
	for k, body := range warm {
		if m, err := normalized(body); err == nil {
			first[k] = m
		}
	}
	var evals []*svcRecord
	for c := range ph.records {
		for i := range ph.records[c] {
			r := &ph.records[c][i]
			var errs []error
			switch {
			case r.err != nil:
				errs = append(errs, r.err)
			case r.status/100 != 2:
				errs = append(errs, fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body)))
			case r.req.kind != "job":
				key := r.req.path + string(r.req.body)
				m, err := normalized(r.body)
				if err != nil {
					errs = append(errs, err)
					break
				}
				if r.req.class == "repeat" {
					if want, ok := first[key]; !ok {
						errs = append(errs, fmt.Errorf("repeat of a request never answered"))
					} else if !reflect.DeepEqual(m, want) {
						errs = append(errs, fmt.Errorf("repeat answer differs from the first for %s", r.req.body))
					}
				} else if _, ok := first[key]; !ok {
					first[key] = m
				}
				if r.req.eval != nil {
					evals = append(evals, r)
				}
			}
			env.judge("service "+r.req.kind, errs)
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0xe7a1))
	for s := 0; s < evalSamples && len(evals) > 0; s++ {
		r := evals[rng.IntN(len(evals))]
		ev := r.req.eval
		want, err := core.EvaluateContext(ctx, ev.Design, serviceMixes()[ev.Mix], ev.RefLimit)
		var errs []error
		var got struct {
			Report json.RawMessage `json:"report"`
		}
		if err == nil {
			err = json.Unmarshal(r.body, &got)
		}
		if err != nil {
			errs = append(errs, err)
		} else if !jsonEqual(got.Report, mustJSON(want)) {
			errs = append(errs, fmt.Errorf("evaluate %s differs from core.EvaluateContext", r.req.body))
		}
		env.judge("service reference evaluate", errs)
	}
}

func jsonEqual(a, b []byte) bool {
	var x, y any
	if json.Unmarshal(a, &x) != nil || json.Unmarshal(b, &y) != nil {
		return false
	}
	return reflect.DeepEqual(x, y)
}
