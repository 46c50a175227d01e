package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"abacus/internal/core"
	"abacus/internal/dnn"
	"abacus/internal/executor"
	"abacus/internal/gpusim"
	"abacus/internal/predictor"
	"abacus/internal/sched"
	"abacus/internal/trace"
)

// The co-located mix: four services on one simulated A100, fed a seeded
// Poisson open loop well past the mix's ~20 QPS 99%-QoS knee, in virtual
// time, so queries contend and the controller has real choices to make.
var colocateModels = []dnn.ModelID{dnn.ResNet50, dnn.ResNet152, dnn.InceptionV3, dnn.Bert}

const (
	colocateQPS       = 60
	colocateVirtualMS = 240_000
	memoCapacity      = 4096 // the gateway's default predict cache
	// setupsPerRep is how many set-ups are timed alone after each rep, so
	// setup_s is a median of many, taken from a warm process, even when
	// reps are few. One set-up takes a few ms, and single ones jump by 2x
	// with collector and page-fault timing.
	setupsPerRep = 40
	// windows splits each rep by outcome count. At each boundary the rep
	// takes a forced-GC heap reading, whose time is left out of every
	// host-time figure.
	windows = 24
)

// colocateRep is one full simulation of the arrival trace on a fresh
// runtime.
type colocateRep struct {
	digest     uint64
	setup      time.Duration
	loop       hostInterval // the step loop, less the heap probes
	events     int64
	mallocs    uint64
	hostLatUS  []float64 // completed queries' host latency, in time the host ran
	simLat     []float64 // completed queries' virtual latency, ms
	waits      []float64 // simulated latency minus exclusive latency, ms
	good       int
	failed     int64
	peakHeapMB float64 // peak live heap over the set-up baseline
	rt         *core.Runtime
	memo       *predictor.Memoized
	model      *timedModel
}

// newColocateRuntime builds the runtime and submits the whole trace; the
// returned slice holds the queries in ID order.
func newColocateRuntime(arrivals []trace.Arrival, model predictor.LatencyModel,
	onResult func(*sched.Query)) (*core.Runtime, []*sched.Query, error) {
	rt, err := core.New(core.Config{Models: colocateModels, Model: model, OnResult: onResult})
	if err != nil {
		return nil, nil, err
	}
	qs := make([]*sched.Query, len(arrivals))
	for i, a := range arrivals {
		qs[i] = rt.Submit(a.Service, a.Input, a.Time)
	}
	return rt, qs, nil
}

// runColocateRep simulates the trace once, stepping the engine itself to
// count events. tr non-nil traces it.
func runColocateRep(arrivals []trace.Arrival, tr *tracer) (*colocateRep, error) {
	n := len(arrivals)
	rep := &colocateRep{}
	outcomes := make([]int32, n)
	finishHost := make([]time.Duration, n)
	arrivalHost := make([]time.Duration, n)
	baseMB := liveHeapMB()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	setupID, setupT0 := tr.begin()
	t0 := time.Now()
	rep.memo = predictor.NewMemoized(predictor.Oracle{Profile: gpusim.A100Profile()}, memoCapacity)
	var model predictor.LatencyModel = rep.memo
	if tr != nil {
		rep.model = &timedModel{inner: rep.memo, tr: tr}
		model = rep.model
	}
	var loopStart time.Time
	var paused time.Duration
	results := 0
	rt, qs, err := newColocateRuntime(arrivals, model, func(q *sched.Query) {
		i := q.ID - 1
		if i < 0 || i >= int64(n) {
			rep.failed++
			return
		}
		outcomes[i]++
		finishHost[i] = time.Since(loopStart) - paused
		results++
	})
	if err != nil {
		return nil, err
	}
	rep.rt = rt
	rep.setup = time.Since(t0)
	tr.end(setupID, 0, "colocate.setup", "", setupT0)

	eng := rt.Engine()
	probes := 0
	loopID, loopT0 := tr.begin()
	if rep.model != nil {
		rep.model.root = loopID
	}
	next := 0
	cpu0 := readCPUTimes()
	loopStart = time.Now()
	for eng.Step() {
		rep.events++
		if next < n && arrivals[next].Time <= eng.Now() {
			now := time.Since(loopStart) - paused
			for next < n && arrivals[next].Time <= eng.Now() {
				arrivalHost[next] = now
				next++
			}
		}
		if results >= (probes+1)*n/windows {
			probes++
			p0 := time.Now()
			rep.peakHeapMB = max(rep.peakHeapMB, liveHeapMB()-baseMB)
			paused += time.Since(p0)
		}
	}
	rep.loop = hostInterval{time.Since(loopStart) - paused, demandStolen(cpu0, readCPUTimes())}
	tr.end(loopID, 0, "colocate.step_loop", "", loopT0)
	runtime.ReadMemStats(&ms1)
	rep.mallocs = ms1.Mallocs - ms0.Mallocs

	// Every query yields exactly one outcome, and none finishes before it
	// arrived; the digest pins every simulated outcome in ID order.
	h := fnv.New64a()
	var buf [17]byte
	profile := rt.Device().Profile()
	for i, q := range qs {
		if outcomes[i] != 1 || q.ID != int64(i+1) || q.Finish < q.Arrival {
			rep.failed++
			continue
		}
		binary.LittleEndian.PutUint64(buf[0:], uint64(q.ID))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(q.Finish))
		buf[16] = 0
		if q.Dropped {
			buf[16] = 1
		} else {
			rep.simLat = append(rep.simLat, q.Latency())
			rep.waits = append(rep.waits, q.Latency()-executor.ExclusiveLatency(q.Service.Model, q.Input, profile))
			rep.hostLatUS = append(rep.hostLatUS, float64(finishHost[i]-arrivalHost[i])/1e3*(1-rep.loop.stolen))
		}
		if !q.Violated() {
			rep.good++
		}
		h.Write(buf[:])
	}
	rep.digest = h.Sum64()
	return rep, nil
}

// timeSetups times setupsPerRep set-ups alone, each from a collected heap,
// in seconds the host ran.
func timeSetups(arrivals []trace.Arrival) ([]float64, error) {
	var xs []float64
	cpu0 := readCPUTimes()
	for i := 0; i < setupsPerRep; i++ {
		runtime.GC()
		t0 := time.Now()
		memo := predictor.NewMemoized(predictor.Oracle{Profile: gpusim.A100Profile()}, memoCapacity)
		if _, _, err := newColocateRuntime(arrivals, memo, func(*sched.Query) {}); err != nil {
			return nil, err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	run := 1 - demandStolen(cpu0, readCPUTimes())
	for i := range xs {
		xs[i] *= run
	}
	return xs, nil
}

// liveHeapMB collects garbage and returns the live heap in MiB.
func liveHeapMB() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func runColocate(o options) (*result, error) {
	start := time.Now()
	arrivals := trace.NewGenerator(colocateModels, o.seed).Poisson(colocateQPS, colocateVirtualMS)
	n := len(arrivals)
	if n == 0 {
		return nil, fmt.Errorf("colocate: empty trace")
	}

	// Reps until the next would overrun the time (at least two); every rep
	// must reproduce the first one's outcome digest. The traced run
	// alternates untraced and traced reps to measure tracing overhead.
	r := &result{correct: true}
	var setups []float64
	var reps, plain, traced []*colocateRep
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	for i := 0; ; i++ {
		var t *tracer
		if o.trace && i%2 == 1 {
			t = tr
		}
		t0 := time.Now()
		rep, err := runColocateRep(arrivals, t)
		if err != nil {
			return nil, err
		}
		r.attempted += int64(n)
		r.failed += rep.failed
		if len(reps) > 0 && rep.digest != reps[0].digest {
			r.fail("colocate: rep %d outcome digest %016x differs from rep 0's %016x", i, rep.digest, reps[0].digest)
		}
		more, err := timeSetups(arrivals)
		if err != nil {
			return nil, err
		}
		setups = append(setups, more...)
		if t != nil {
			traced = append(traced, rep)
		} else {
			rep.rt, rep.memo = nil, nil
			plain = append(plain, rep)
		}
		reps = append(reps, rep)
		if len(reps) >= 2 && (!o.trace || len(traced) > 0) &&
			time.Since(start)+time.Since(t0) > time.Duration(o.seconds*float64(time.Second)) {
			break
		}
	}
	ref := reps[0]
	fmt.Printf("colocate: %d queries over %d ms virtual, %d reps, outcome digest %016x\n",
		n, colocateVirtualMS, len(reps), ref.digest)
	for i, rep := range reps {
		fmt.Printf("rep %d traced=%v: setup %.4fs, loop %.2fs = %.0f queries/s wall, %.1f%% stolen, %.0f/s run, peak heap %.2f MB\n",
			i, rep.model != nil, rep.setup.Seconds(), rep.loop.wall.Seconds(), float64(n)/rep.loop.wall.Seconds(),
			100*rep.loop.stolen, float64(n)/rep.loop.runSeconds(), rep.peakHeapMB)
	}

	// tput is queries per second the host ran, over all the given reps.
	tput := func(reps []*colocateRep) float64 {
		var secs float64
		for _, rep := range reps {
			secs += rep.loop.runSeconds()
		}
		return float64(len(reps)*n) / secs
	}
	// hostLat pools the given reps' host latencies.
	hostLat := func(reps []*colocateRep) []float64 {
		var xs []float64
		for _, rep := range reps {
			xs = append(xs, rep.hostLatUS...)
		}
		return xs
	}
	hostP99 := func(reps []*colocateRep) metric {
		xs := hostLat(reps)
		return metric{"e2e.latency_p99_us", quantile(xs, 0.99), len(xs)}
	}
	if !o.trace {
		var allocs, heaps []float64
		for _, rep := range plain {
			allocs = append(allocs, float64(rep.mallocs)/float64(n))
			heaps = append(heaps, rep.peakHeapMB)
		}
		r.info = append(simLatency(ref.simLat), hostP99(plain))
		r.e2e = []metric{
			{"goodput", float64(ref.good) / float64(n), n},
			{"throughput_qps", tput(plain), len(plain) * n},
			{"latency_p50_us", quantile(hostLat(plain), 0.5), len(hostLat(plain))},
			{"allocs_per_op", median(allocs), len(plain)},
			{"heap_mb", median(heaps), len(plain) * windows},
			{"setup_s", median(setups), len(setups)},
		}
		return r, nil
	}

	rep := traced[len(traced)-1]
	nf := float64(n)
	members, ops := rep.rt.Controller().GroupStats()
	ctrl := rep.rt.Controller()
	dev := rep.rt.Device()
	ms := rep.memo.Stats()
	calls := float64(rep.model.calls.Load())
	selfNS := float64(rep.model.selfNS.Load())
	overhead := 100 * (1 - tput(traced)/tput(plain))
	r.layer = append(zeroMetrics(gatewayOnly), []metric{
		{"predictor.calls_per_op", calls / nf, n},
		{"predictor.groups_per_call", ratio(float64(rep.model.groups.Load()), calls), int(calls)},
		{"predictor.self_us_per_op", selfNS / 1e3 / nf, n},
		{"predictor.memo_hit_ratio", ratio(float64(ms.Hits), float64(ms.Hits+ms.Misses)), int(ms.Hits + ms.Misses)},
		{"sched.rounds_per_query", float64(ctrl.Rounds()) / nf, n},
		{"sched.predict_rounds_per_query", float64(ctrl.PredictRounds()) / nf, n},
		{"sched.group_members", members, int(rep.rt.Executor().Groups())},
		{"sched.group_ops", ops, int(rep.rt.Executor().Groups())},
		{"sched.drop_frac", float64(ctrl.Drops()) / nf, n},
		{"sched.wait_p50_ms", quantile(rep.waits, 0.5), len(rep.waits)},
		{"sched.wait_p99_ms", quantile(rep.waits, 0.99), len(rep.waits)},
		{"executor.groups_per_query", float64(rep.rt.Executor().Groups()) / nf, n},
		{"executor.peak_checkpoint_mb", rep.rt.Executor().PeakCheckpointedBytes() / (1 << 20), 1},
		{"gpusim.kernels_per_query", float64(dev.Launched()) / nf, n},
		{"gpusim.sm_util", dev.Utilization(), 1},
		{"sim.events_per_query", float64(rep.events) / nf, n},
		{"sim.ns_per_event", ratio(float64(rep.loop.wall.Nanoseconds())-selfNS, float64(rep.events)), int(rep.events)},
		{"sim.pool_events", float64(rep.rt.Engine().AllocatedEvents()), 1},
		{"trace.overhead_pct", overhead, len(reps)},
	}...)
	r.layer = append(r.layer, hostP99(plain))
	r.layer = append(r.layer, simLatency(rep.simLat)...)
	tr.printTable()
	return r, tr.write(spanPath(o))
}
