package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"abacus/internal/admit"
	"abacus/internal/dnn"
	"abacus/internal/executor"
	"abacus/internal/gpusim"
	"abacus/internal/predictor"
	"abacus/internal/realtime"
	"abacus/internal/server"
)

const (
	// clients is how many closed-loop requesters drive the gateway.
	clients = 2
	// warmupRequests fill the pools, the predict cache and the admission
	// caches before timing; they are part of setup_s.
	warmupRequests = 1000
	// roundSeconds is roughly how long each fresh gateway is measured; a
	// run measures as many rounds as fit its time, at least two.
	roundSeconds = 2
	// window splits each round. Host latency percentiles are taken per
	// window and reported as medians over windows, which damps host noise
	// that a whole-round figure would carry.
	window = 250 * time.Millisecond
	// scrapeEvery paces the monitoring client that alternates /statz and
	// /metrics during the load.
	scrapeEvery = 100 * time.Millisecond
	// shedInfeasible is the share of shed requests whose deadline no
	// service can meet; infeasibleMS is that deadline.
	shedInfeasible = 0.9
	infeasibleMS   = 0.001
	// codecSamples is how many of the workload's own bodies and responses
	// the traced run keeps to time the wire codec on, each side for at
	// least codecTime.
	codecSamples = 2048
	codecTime    = 50 * time.Millisecond
)

// gatewayOnly are the per-layer metrics only the HTTP front end produces.
var gatewayOnly = []string{
	"server.decode_ns", "server.encode_ns", "server.accept_us", "server.refuse_us",
	"server.statz_us", "server.metrics_us", "server.refused_frac", "server.routed_skew",
	"admit.rejected_deadline", "admit.rejected_queue", "admit.rejected_degraded", "admit.degrade_transitions",
}

// simLatency returns the p50 and p99 of virtual query latencies in ms.
func simLatency(ms []float64) []metric {
	return []metric{
		{"sim.latency_p50_ms", quantile(ms, 0.5), len(ms)},
		{"sim.latency_p99_ms", quantile(ms, 0.99), len(ms)},
	}
}

func zeroMetrics(names []string) []metric {
	out := make([]metric, len(names))
	for i, name := range names {
		out[i] = metric{Name: name}
	}
	return out
}

// exclusiveMS tabulates executor.ExclusiveLatency per (service, batch,
// seqlen) so clients can compute a query's wait without allocating.
type exclusiveMS map[[3]int]float64

func newExclusiveMS() exclusiveMS {
	t := exclusiveMS{}
	p := gpusim.A100Profile()
	for svc, id := range colocateModels {
		m := dnn.Get(id)
		seqs := m.SeqLens
		if len(seqs) == 0 {
			seqs = []int{0}
		}
		for _, b := range dnn.Batches() {
			for _, s := range seqs {
				t[[3]int{svc, b, s}] = executor.ExclusiveLatency(id, dnn.Input{Batch: b, SeqLen: s}, p)
			}
		}
	}
	return t
}

// respWriter is a reusable in-process http.ResponseWriter.
type respWriter struct {
	h    http.Header
	code int
	buf  []byte
}

func (w *respWriter) Header() http.Header { return w.h }

func (w *respWriter) WriteHeader(code int) { w.code = code }

func (w *respWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// client is one closed-loop requester with a seeded request stream. Every
// request carries a unique request_id; on shed a seeded share carries an
// unmeetable deadline.
type client struct {
	id    int
	shed  bool
	h     http.Handler
	rng   *rand.Rand
	req   *http.Request
	body  *bytes.Reader
	buf   []byte
	w     respWriter
	seq   int
	excl  exclusiveMS
	names [][]byte // model names as they appear in a body
	echo  [][]byte // the response prefix that echoes each model

	// The request in flight.
	svc, batch, seqLen int
	infeasible         bool

	// Records of the measured requests.
	latUS    []float64
	win      []int32 // window each measured request finished in
	codes    []int16
	simMS    []float64
	waitMS   []float64
	good     int
	failed   int64
	bodies   [][]byte // traced rounds: samples for the codec timing
	replies  [][]byte
	sampling bool
}

func newClient(id int, seed int64, shed bool, h http.Handler, excl exclusiveMS) *client {
	c := &client{
		id: id, shed: shed, h: h, excl: excl,
		rng: rand.New(rand.NewSource(seed*7919 + int64(id))),
		w:   respWriter{h: make(http.Header, 4)},
	}
	for _, m := range colocateModels {
		c.names = append(c.names, []byte(m.String()))
		c.echo = append(c.echo, []byte(`{"model":"`+m.String()+`"`))
	}
	c.body = bytes.NewReader(nil)
	c.req = httptest.NewRequest(http.MethodPost, "/v1/infer", c.body)
	return c
}

// next draws the next request and renders its body.
func (c *client) next(prefix string) {
	c.svc = c.rng.Intn(len(colocateModels))
	m := dnn.Get(colocateModels[c.svc])
	batches := dnn.Batches()
	c.batch = batches[c.rng.Intn(len(batches))]
	c.seqLen = 0
	if m.IsSequence() {
		c.seqLen = m.SeqLens[c.rng.Intn(len(m.SeqLens))]
	}
	c.infeasible = c.shed && c.rng.Float64() < shedInfeasible
	c.seq++
	b := append(c.buf[:0], `{"model":"`...)
	b = append(b, c.names[c.svc]...)
	b = append(b, `","batch":`...)
	b = strconv.AppendInt(b, int64(c.batch), 10)
	if c.seqLen != 0 {
		b = append(b, `,"seqlen":`...)
		b = strconv.AppendInt(b, int64(c.seqLen), 10)
	}
	if c.infeasible {
		b = append(b, `,"deadline_ms":`...)
		b = strconv.AppendFloat(b, infeasibleMS, 'g', -1, 64)
	}
	b = append(b, `,"request_id":"`...)
	b = append(b, prefix...)
	b = strconv.AppendInt(b, int64(c.id), 10)
	b = append(b, '-')
	b = strconv.AppendInt(b, int64(c.seq), 10)
	b = append(b, `"}`...)
	c.buf = b
	c.body.Reset(b)
	c.req.ContentLength = int64(len(b))
	c.w.code = http.StatusOK
	c.w.buf = c.w.buf[:0]
}

// send issues the current request; tr non-nil wraps it in a span.
func (c *client) send(tr *tracer, root uint64) time.Duration {
	id, st := tr.begin()
	t0 := time.Now()
	c.h.ServeHTTP(&c.w, c.req)
	d := time.Since(t0)
	if tr != nil {
		rid := c.buf[bytes.LastIndex(c.buf, []byte(`"request_id":"`))+len(`"request_id":"`) : len(c.buf)-2]
		tr.end(id, root, "server.ServeHTTP", string(rid), st)
	}
	return d
}

// check validates the answer to the current request and records it.
// Ingest: a 200 that echoes its model, with latency > 0 and finish >=
// arrival. Shed: a 429 for deadline exactly when the deadline was
// unmeetable, a 200 as above otherwise.
func (c *client) check(d time.Duration, record bool) {
	resp := c.w.buf
	ok := bytes.HasPrefix(resp, c.echo[c.svc])
	var sim float64
	switch {
	case c.infeasible:
		ok = ok && c.w.code == http.StatusTooManyRequests &&
			bytes.Contains(resp, []byte(`"reason":"`+admit.ReasonDeadline+`"`))
	default:
		sim = jsonNumber(resp, `"latency_ms":`)
		ok = ok && c.w.code == http.StatusOK && sim > 0 &&
			jsonNumber(resp, `"finish_ms":`) >= jsonNumber(resp, `"arrival_ms":`)
	}
	if !ok {
		c.failed++
		if c.failed <= 3 {
			fmt.Printf("client %d: unexpected answer %d to %s: %s", c.id, c.w.code, c.buf, resp)
		}
	}
	if !record {
		return
	}
	c.latUS = append(c.latUS, float64(d)/1e3)
	c.codes = append(c.codes, int16(c.w.code))
	if c.w.code == http.StatusOK {
		c.simMS = append(c.simMS, sim)
		c.waitMS = append(c.waitMS, sim-c.excl[[3]int{c.svc, c.batch, c.seqLen}])
		if !bytes.Contains(resp, []byte(`"violated":true`)) {
			c.good++
		}
	}
	if c.sampling && len(c.bodies) < codecSamples {
		c.bodies = append(c.bodies, append([]byte(nil), c.buf...))
		c.replies = append(c.replies, append([]byte(nil), resp...))
	}
}

// jsonNumber reads the number after key in an encoded response (0 when the
// key is absent, as the encoder omits zero values).
func jsonNumber(b []byte, key string) float64 {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0
	}
	b = b[i+len(key):]
	j := 0
	for j < len(b) && b[j] != ',' && b[j] != '}' {
		j++
	}
	if j == 0 {
		return 0
	}
	// The view is only read during the call, so no copy is needed.
	v, err := strconv.ParseFloat(unsafe.String(&b[0], j), 64)
	if err != nil {
		return -1
	}
	return v
}

// round is one fresh gateway: set up, warmed, loaded, scraped, drained.
type round struct {
	setup      float64      // seconds the host ran
	host       hostInterval // the timed part
	winStolen  []float64    // stolen share of each window
	sent       int64        // measured requests
	warmFailed int64
	total      int64 // every request the gateway saw, warm-up included
	mallocs    uint64
	heapMB     float64
	clients    []*client
	statzUS    []float64
	metricUS   []float64
	pre        server.Statz // before Drain: node loop state
	post       server.Statz // after Drain: final counters
	node0      *nodeCounters
	model      *timedModel
}

type nodeCounters struct {
	rounds, predictRounds, drops, groups, launched int64
	members, ops, peakCkptMB, smUtil               float64
	poolEvents                                     int
}

// windows returns, per full window of the round, the p50 and p99 host
// latency in time the host ran.
func (r *round) windows() (p50, p99 []float64) {
	lat := make([][]float64, int(r.host.wall/window))
	for _, c := range r.clients {
		for i, w := range c.win {
			if int(w) < len(lat) {
				lat[w] = append(lat[w], c.latUS[i])
			}
		}
	}
	for w, l := range lat {
		stolen := r.host.stolen
		if w < len(r.winStolen) {
			stolen = r.winStolen[w]
		}
		scale := 1 - stolen
		p50 = append(p50, quantile(l, 0.5)*scale)
		p99 = append(p99, quantile(l, 0.99)*scale)
	}
	return p50, p99
}

func gatewayConfig(shed bool, model predictor.LatencyModel) server.Config {
	cfg := server.Config{Models: colocateModels, Speedup: realtime.Unpaced, Model: model}
	if shed {
		cfg.Placement = [][]dnn.ModelID{colocateModels, colocateModels}
	}
	return cfg
}

func scrape(h http.Handler, path string) (time.Duration, []byte, int) {
	w := &respWriter{h: make(http.Header, 2)}
	req := httptest.NewRequest(http.MethodGet, path, nil)
	t0 := time.Now()
	h.ServeHTTP(w, req)
	return time.Since(t0), w.buf, w.code
}

func statz(h http.Handler) (server.Statz, error) {
	var st server.Statz
	_, body, code := scrape(h, "/statz")
	if code != http.StatusOK {
		return st, fmt.Errorf("/statz answered %d", code)
	}
	return st, json.Unmarshal(body, &st)
}

// runRound measures one fresh gateway for d. tr non-nil traces the round.
func runRound(o options, shed bool, d time.Duration, tr *tracer, excl exclusiveMS) (*round, error) {
	r := &round{}
	// Collecting first also starts every set-up from the same collector
	// state.
	baseMB := liveHeapMB()
	rootID, rootT0 := tr.begin()
	setupCPU := readCPUTimes()
	t0 := time.Now()
	var model predictor.LatencyModel = predictor.Oracle{Profile: gpusim.A100Profile()}
	if tr != nil {
		r.model = &timedModel{inner: model, tr: tr, root: rootID}
		model = r.model
	}
	srv, err := server.New(gatewayConfig(shed, model))
	if err != nil {
		return nil, err
	}
	srv.Start()
	h := srv.Handler()
	for i := 0; i < clients; i++ {
		r.clients = append(r.clients, newClient(i, o.seed, shed, h, excl))
	}
	warm := newClient(clients, o.seed, shed, h, excl)
	for i := 0; i < warmupRequests; i++ {
		warm.next("w")
		warm.send(nil, 0)
		warm.check(0, false)
	}
	r.warmFailed = warm.failed
	r.setup = hostInterval{time.Since(t0), machineStolen(setupCPU, readCPUTimes())}.runSeconds()
	r.total = warmupRequests
	// The gateway's heap is read at a fixed request count: after the timed
	// window it would grow with throughput, since the gateway's latency
	// windows and outcome caches fill with requests.
	r.heapMB = liveHeapMB() - baseMB

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var stop atomic.Bool
	stopScrape := make(chan struct{})
	var wg sync.WaitGroup
	cpu0 := readCPUTimes()
	start := time.Now()
	for _, c := range r.clients {
		c.sampling = tr != nil && c.id == 0
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for !stop.Load() {
				c.next("")
				c.check(c.send(tr, rootID), true)
				c.win = append(c.win, int32(time.Since(start)/window))
			}
		}(c)
	}
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		tick := time.NewTicker(scrapeEvery)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stopScrape:
				return
			case <-tick.C:
			}
			path, name := "/statz", "server.statz"
			if i%2 == 1 {
				path, name = "/metrics", "server.metrics"
			}
			id, st := tr.begin()
			took, _, _ := scrape(h, path)
			tr.end(id, rootID, name, "", st)
			if i%2 == 1 {
				r.metricUS = append(r.metricUS, float64(took)/1e3)
			} else {
				r.statzUS = append(r.statzUS, float64(took)/1e3)
			}
		}
	}()
	// Sample the stolen share of each window while the clients run.
	prev := cpu0
	for w := 1; time.Duration(w)*window <= d; w++ {
		time.Sleep(time.Until(start.Add(time.Duration(w) * window)))
		cur := readCPUTimes()
		r.winStolen = append(r.winStolen, machineStolen(prev, cur))
		prev = cur
	}
	time.Sleep(time.Until(start.Add(d)))
	stop.Store(true)
	wg.Wait()
	r.host = hostInterval{time.Since(start), machineStolen(cpu0, readCPUTimes())}
	close(stopScrape)
	scrapeWG.Wait()
	runtime.ReadMemStats(&ms1)
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	for _, c := range r.clients {
		r.sent += int64(len(c.latUS))
	}
	r.total += r.sent

	// Node loop state (routing, predict cache, degrade) is only visible
	// while the bridges run; counters are final once Drain returns.
	if r.pre, err = statz(h); err != nil {
		srv.Drain()
		return nil, err
	}
	srv.Drain()
	if r.post, err = statz(h); err != nil {
		return nil, err
	}
	tr.end(rootID, 0, "gateway.round", "", rootT0)

	rt := srv.Runtime()
	members, ops := rt.Controller().GroupStats()
	r.node0 = &nodeCounters{
		rounds: rt.Controller().Rounds(), predictRounds: rt.Controller().PredictRounds(),
		drops: rt.Controller().Drops(), groups: rt.Executor().Groups(), launched: rt.Device().Launched(),
		members: members, ops: ops,
		peakCkptMB: rt.Executor().PeakCheckpointedBytes() / (1 << 20),
		smUtil:     rt.Device().Utilization(), poolEvents: rt.Engine().AllocatedEvents(),
	}
	return r, nil
}

// conserve checks the drained gateway's books: every request it saw was
// accepted or rejected, and every accepted query completed.
func (r *round) conserve(res *result) {
	var accepted, rejected, completed, dropped int64
	for _, s := range r.post.Services {
		accepted += s.Accepted
		rejected += s.RejectedDeadline + s.RejectedQueue + s.RejectedDraining + s.RejectedDegraded
		completed += s.Completed
		dropped += s.Dropped
	}
	if accepted+rejected != r.total {
		res.fail("statz: accepted %d + rejected %d != sent %d", accepted, rejected, r.total)
		res.failed += abs(r.total - accepted - rejected)
	}
	if completed != accepted || dropped != 0 {
		res.fail("statz: completed %d (dropped %d) != accepted %d", completed, dropped, accepted)
		res.failed += abs(accepted - completed)
	}
	if r.post.Faults.Malformed != 0 {
		res.fail("statz: %d malformed requests", r.post.Faults.Malformed)
	}
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func runGateway(o options, shed bool) (*result, error) {
	start := time.Now()
	excl := newExclusiveMS()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	rounds := max(2, int(o.seconds/roundSeconds))
	d := time.Duration(o.seconds * float64(time.Second) / float64(rounds))
	res := &result{correct: true}
	var plain, traced []*round
	for i := 0; i < rounds; i++ {
		var t *tracer
		if o.trace && i%2 == 0 {
			t = tr
		}
		r, err := runRound(o, shed, d, t, excl)
		if err != nil {
			return nil, err
		}
		r.conserve(res)
		fmt.Printf("round %d traced=%v: setup %.3fs run, %d requests in %.2fs = %.0f/s wall, %.1f%% stolen, %.0f/s run, heap %.2f MB\n",
			i, t != nil, r.setup, r.sent, r.host.wall.Seconds(), float64(r.sent)/r.host.wall.Seconds(),
			100*r.host.stolen, float64(r.sent)/r.host.runSeconds(), r.heapMB)
		res.attempted += r.total
		res.failed += r.warmFailed
		for _, c := range r.clients {
			res.failed += c.failed
		}
		if t != nil {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	fmt.Printf("%s: %d rounds of %v in %.1fs\n", o.workload, rounds, d, time.Since(start).Seconds())

	// tput is requests answered per second the host ran, over all the
	// given rounds.
	tput := func(rs []*round) float64 {
		var sent, secs float64
		for _, r := range rs {
			sent += float64(r.sent)
			secs += r.host.runSeconds()
		}
		return sent / secs
	}
	hostP99 := func(rs []*round) metric {
		var xs []float64
		var n int64
		for _, r := range rs {
			_, p99 := r.windows()
			xs = append(xs, p99...)
			n += r.sent
		}
		return metric{"e2e.latency_p99_us", median(xs), int(n)}
	}
	if !o.trace {
		var p50s, allocs, setups, heaps, sim []float64
		var sent, good int64
		for _, r := range plain {
			for _, c := range r.clients {
				sim = append(sim, c.simMS...)
				good += int64(c.good)
			}
			sent += r.sent
			p50, _ := r.windows()
			p50s = append(p50s, p50...)
			allocs = append(allocs, float64(r.mallocs)/float64(r.sent))
			setups = append(setups, r.setup)
			heaps = append(heaps, r.heapMB)
		}
		res.e2e = []metric{
			{"goodput", float64(good) / float64(sent), int(sent)},
			{"throughput_qps", tput(plain), int(sent)},
			{"latency_p50_us", median(p50s), int(sent)},
			{"allocs_per_op", median(allocs), len(plain)},
			{"heap_mb", median(heaps), len(plain)},
			{"setup_s", median(setups), len(setups)},
		}
		res.info = append(simLatency(sim), hostP99(plain))
		return res, nil
	}

	var accept, refuse, sim, waits, statzUS, metricUS []float64
	var sent, refused int64
	var bodies, replies [][]byte
	for _, r := range traced {
		for _, c := range r.clients {
			for i, code := range c.codes {
				if code == http.StatusOK {
					accept = append(accept, c.latUS[i])
				} else {
					refuse = append(refuse, c.latUS[i])
					refused++
				}
			}
			sim = append(sim, c.simMS...)
			waits = append(waits, c.waitMS...)
			bodies = append(bodies, c.bodies...)
			replies = append(replies, c.replies...)
		}
		sent += r.sent
		statzUS = append(statzUS, r.statzUS...)
		metricUS = append(metricUS, r.metricUS...)
	}
	decodeNS, encodeNS, err := timeCodec(bodies, replies)
	if err != nil {
		return nil, err
	}
	last := traced[len(traced)-1]
	var rejDeadline, rejQueue, rejDegraded int64
	for _, s := range last.post.Services {
		rejDeadline += s.RejectedDeadline
		rejQueue += s.RejectedQueue
		rejDegraded += s.RejectedDegraded
	}
	minRouted, maxRouted := int64(-1), int64(0)
	for _, n := range last.pre.Nodes {
		maxRouted = max(maxRouted, n.Routed)
		if minRouted < 0 || n.Routed < minRouted {
			minRouted = n.Routed
		}
	}
	var hits, lookups float64
	if pc := last.pre.PredictCache; pc != nil {
		hits, lookups = float64(pc.Hits), float64(pc.Hits+pc.Misses)
	}
	ops := float64(last.total)
	calls := float64(last.model.calls.Load())
	q0 := float64(last.pre.Nodes[0].Routed)
	n0 := last.node0
	overhead := 100 * (1 - tput(traced)/tput(plain))
	res.layer = []metric{
		{"server.decode_ns", decodeNS, len(bodies)},
		{"server.encode_ns", encodeNS, len(replies)},
		{"server.accept_us", median(accept), len(accept)},
		{"server.refuse_us", median(refuse), len(refuse)},
		{"server.statz_us", median(statzUS), len(statzUS)},
		{"server.metrics_us", median(metricUS), len(metricUS)},
		{"server.refused_frac", ratio(float64(refused), float64(sent)), int(sent)},
		{"server.routed_skew", ratio(float64(maxRouted), float64(minRouted)), len(last.pre.Nodes)},
		{"admit.rejected_deadline", float64(rejDeadline), int(last.total)},
		{"admit.rejected_queue", float64(rejQueue), int(last.total)},
		{"admit.rejected_degraded", float64(rejDegraded), int(last.total)},
		{"admit.degrade_transitions", float64(last.pre.Degrade.Transitions), 1},
		{"predictor.calls_per_op", calls / ops, int(ops)},
		{"predictor.groups_per_call", ratio(float64(last.model.groups.Load()), calls), int(calls)},
		{"predictor.self_us_per_op", float64(last.model.selfNS.Load()) / 1e3 / ops, int(ops)},
		{"predictor.memo_hit_ratio", ratio(hits, lookups), int(lookups)},
		{"sched.rounds_per_query", ratio(float64(n0.rounds), q0), int(q0)},
		{"sched.predict_rounds_per_query", ratio(float64(n0.predictRounds), q0), int(q0)},
		{"sched.group_members", n0.members, int(n0.groups)},
		{"sched.group_ops", n0.ops, int(n0.groups)},
		{"sched.drop_frac", ratio(float64(n0.drops), q0), int(q0)},
		{"sched.wait_p50_ms", quantile(waits, 0.5), len(waits)},
		{"sched.wait_p99_ms", quantile(waits, 0.99), len(waits)},
		{"executor.groups_per_query", ratio(float64(n0.groups), q0), int(q0)},
		{"executor.peak_checkpoint_mb", n0.peakCkptMB, 1},
		{"gpusim.kernels_per_query", ratio(float64(n0.launched), q0), int(q0)},
		{"gpusim.sm_util", n0.smUtil, 1},
		// The bridge steps the engine itself, so events are not countable
		// from outside on the gateway workloads.
		{"sim.events_per_query", 0, 0},
		{"sim.ns_per_event", 0, 0},
		{"sim.pool_events", float64(n0.poolEvents), 1},
		{"trace.overhead_pct", overhead, len(traced) + len(plain)},
	}
	res.layer = append(res.layer, hostP99(plain))
	res.layer = append(res.layer, simLatency(sim)...)
	tr.printTable()
	return res, tr.write(spanPath(o))
}

// timeCodec times the public wire codec on the workload's own request
// bodies and responses: ns per WireRequest.Parse and per
// AppendInferResponse.
func timeCodec(bodies, replies [][]byte) (decodeNS, encodeNS float64, err error) {
	if len(bodies) == 0 || len(replies) == 0 {
		return 0, 0, fmt.Errorf("no codec samples")
	}
	var w server.WireRequest
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < codecTime {
		for _, b := range bodies {
			if err := w.Parse(b); err != nil {
				return 0, 0, fmt.Errorf("decode %s: %w", b, err)
			}
		}
		calls += len(bodies)
	}
	decodeNS = float64(time.Since(t0)) / float64(calls)

	resps := make([]server.InferResponse, len(replies))
	for i, b := range replies {
		if err := json.Unmarshal(b, &resps[i]); err != nil {
			return 0, 0, fmt.Errorf("response %s: %w", b, err)
		}
	}
	var buf []byte
	calls = 0
	t0 = time.Now()
	for time.Since(t0) < codecTime {
		for i := range resps {
			buf = server.AppendInferResponse(buf[:0], &resps[i])
		}
		calls += len(resps)
	}
	encodeNS = float64(time.Since(t0)) / float64(calls)
	return decodeNS, encodeNS, nil
}
