package gpusim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"abacus/internal/sim"
)

// Kinds of device touch the differential test applies mid-run.
const (
	touchRead = iota
	touchDegrade
	touchStall
	touchLaunch
	touchChains
	touchNoise
	touchTracer
	numTouchKinds
)

// touch is one interaction with the device at a virtual instant.
type touch struct {
	at       sim.Time
	kind     int
	boundary bool     // at is a kernel launch or completion instant of the run so far
	outside  bool     // applied between RunUntil calls instead of from an event
	relay    sim.Time // > 0: the event at `at` schedules the touch this much later
	x, y     float64
	spec     KernelSpec
	chains   [][]KernelSpec
}

// scenario is a seeded device workload: a device shape, sibling chains
// issued at time zero, and touches in ascending time order.
type scenario struct {
	start         sim.Time // instant the workload begins
	sm, mem       float64  // partition of a full device; (1, 1) is the full device
	smDeg, memDeg float64
	chains        [][]KernelSpec
	touches       []touch
}

// observation is one value a run exposed: a completion instant or a reader.
type observation struct {
	what string
	v    float64
}

// runStats counts touches that found a chain being replayed inline.
type runStats struct {
	coalesced      int64
	hits, tieHits  int
	outsideTieHits int
}

// runScenario plays sc on a fresh device. The reference run installs a
// tracer, which keeps every kernel on the per-kernel event path, and
// returns its kernel trace; the other run leaves solo chains free to
// coalesce.
func runScenario(sc scenario, ref bool) ([]observation, []KernelEvent, runStats) {
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	if sc.sm < 1 || sc.mem < 1 {
		d = d.Partition(sc.sm, sc.mem)
	}
	d.SetDegradation(sc.smDeg, sc.memDeg)
	var obs []observation
	var events []KernelEvent
	var st runStats
	tracer := func(e KernelEvent) { events = append(events, e) }
	if ref {
		d.SetTracer(tracer)
	}
	record := func(what string, v float64) { obs = append(obs, observation{what, v}) }
	ids := 0
	issue := func(chains [][]KernelSpec) {
		for _, c := range chains {
			id := ids
			ids++
			d.RunChain(c, func() { record(fmt.Sprintf("chain %d done", id), eng.Now()) })
		}
	}
	readers := []func(at string){
		func(at string) { record(at+" busy", d.BusyTime()) },
		func(at string) { record(at+" sm", d.SMTime()) },
		func(at string) { record(at+" util", d.Utilization()) },
		func(at string) { record(at+" energy", d.Energy(A100Energy())) },
		func(at string) { record(at+" resident", float64(d.Resident())) },
		func(at string) { record(at+" launched", float64(d.Launched())) },
	}
	apply := func(i int, tc touch) {
		if d.solo.c != nil {
			st.hits++
			if tc.boundary {
				st.tieHits++
				if tc.outside {
					st.outsideTieHits++
				}
			}
		}
		switch tc.kind {
		case touchRead:
			readers[int(tc.x*float64(len(readers)))](fmt.Sprintf("touch %d", i))
		case touchDegrade:
			d.SetDegradation(tc.x, tc.y)
		case touchStall:
			d.SetLaunchStall(tc.x)
		case touchLaunch:
			id := ids
			ids++
			d.Launch(tc.spec, func() { record(fmt.Sprintf("kernel %d done", id), eng.Now()) })
		case touchChains:
			issue(tc.chains)
		case touchNoise:
			d.EnableNoise(tc.x, 7)
		case touchTracer:
			switch {
			case ref:
				d.SetTracer(tracer)
			case tc.x > 0.5:
				d.SetTracer(func(KernelEvent) {})
			default:
				d.SetTracer(nil)
			}
		}
	}
	eng.RunUntil(sc.start)
	issue(sc.chains)
	for i, tc := range sc.touches {
		switch {
		case tc.outside:
		case tc.relay > 0:
			eng.ScheduleAt(tc.at, func() { eng.Schedule(tc.relay, func() { apply(i, tc) }) })
		default:
			eng.ScheduleAt(tc.at, func() { apply(i, tc) })
		}
	}
	for i, tc := range sc.touches {
		if tc.outside {
			eng.RunUntil(tc.at)
			apply(i, tc)
		}
	}
	eng.Run()
	for _, read := range readers {
		read("final")
	}
	st.coalesced = d.Coalesced()
	return obs, events, st
}

func randomChain(rng *rand.Rand) []KernelSpec {
	specs := make([]KernelSpec, 1+rng.Intn(10))
	for i := range specs {
		specs[i] = randomSpec(rng, fmt.Sprintf("k%d", i))
	}
	return specs
}

func randomSpec(rng *rand.Rand, name string) KernelSpec {
	s := KernelSpec{Name: name, Work: 0.05 + 2*rng.Float64(), SMFrac: 1, MemFrac: rng.Float64()}
	if rng.Intn(3) == 0 {
		s.Work = 0.001 + 0.05*rng.Float64() // shorter than a launch gap
	}
	if rng.Intn(3) > 0 {
		s.SMFrac = 0.05 + 0.95*rng.Float64()
	}
	if rng.Intn(4) == 0 {
		s.MemFrac = 0
	}
	return s
}

func randomScenario(rng *rand.Rand) scenario {
	sc := scenario{sm: 1, mem: 1, smDeg: 1, memDeg: 1}
	if rng.Intn(4) == 0 {
		// Far from time zero every instant rounds more coarsely.
		sc.start = 1e6 * (1 + 9*rng.Float64())
	}
	if rng.Intn(3) == 0 {
		sc.sm, sc.mem = 0.1+0.9*rng.Float64(), 0.1+0.9*rng.Float64()
	}
	if rng.Intn(2) == 0 {
		sc.memDeg = 0.2 + 0.8*rng.Float64()
	}
	if rng.Intn(4) == 0 {
		sc.smDeg = 0.3 + 0.7*rng.Float64()
	}
	for n := 1 + rng.Intn(2); n > 0; n-- {
		sc.chains = append(sc.chains, randomChain(rng))
	}
	// Touches are added in ascending time, so a touch placed on a kernel
	// boundary of the reference run with the earlier touches stays on it.
	last := sc.start
	for k := rng.Intn(9); k > 0; k-- {
		tc := touch{kind: rng.Intn(numTouchKinds), at: last + 0.001 + 3*rng.Float64()}
		if rng.Intn(2) == 0 {
			_, events, _ := runScenario(sc, true)
			var cands []sim.Time
			for _, e := range events {
				for _, b := range []sim.Time{e.Start, e.Finish} {
					if b > last {
						cands = append(cands, b)
					}
				}
			}
			if len(cands) > 0 {
				tc.at, tc.boundary = cands[rng.Intn(len(cands))], true
			}
		}
		switch r := rng.Intn(6); {
		case r == 0:
			tc.outside = true
		case r == 1 && !tc.boundary:
			tc.relay = 0.001 + rng.Float64()
		}
		switch tc.kind {
		case touchDegrade:
			tc.x, tc.y = 0.3+0.7*rng.Float64(), 0.2+0.8*rng.Float64()
			if rng.Intn(3) == 0 {
				tc.x, tc.y = 1, 1
			}
		case touchStall:
			if rng.Intn(2) == 0 {
				tc.x = 0.001 + 0.3*rng.Float64()
			}
		case touchLaunch:
			tc.spec = randomSpec(rng, "direct")
		case touchChains:
			for n := 1 + rng.Intn(3); n > 0; n-- {
				tc.chains = append(tc.chains, randomChain(rng))
			}
		case touchNoise:
			if rng.Intn(2) == 0 {
				tc.x = 0.1
			}
		case touchRead, touchTracer:
			tc.x = rng.Float64()
		}
		sc.touches = append(sc.touches, tc)
		last = tc.at
	}
	return sc
}

// TestCoalescedMatchesEventPath replays seeded random workloads with solo
// chains coalesced and, as the reference, on the per-kernel event path
// (forced by a tracer), and requires bit-equal completion instants and
// device readings — including touches that land exactly on a kernel's
// launch or completion instant, from an event scheduled before the replay
// began or from outside the run loop, and sibling chains issued together.
func TestCoalescedMatchesEventPath(t *testing.T) {
	rng := rand.New(rand.NewSource(20211114))
	chain := []KernelSpec{{Name: "c0", Work: 0.5, SMFrac: 1}, {Name: "c1", Work: 0.7, SMFrac: 0.6, MemFrac: 0.4}}
	directed := []scenario{
		// A launch deferred by a stall that has since been cleared is still
		// in flight when a chain starts: the chain must not coalesce.
		{sm: 1, mem: 1, smDeg: 1, memDeg: 1, touches: []touch{
			{at: 0.1, kind: touchStall, x: 0.6},
			{at: 0.2, kind: touchLaunch, spec: KernelSpec{Name: "late", Work: 1, SMFrac: 0.7, MemFrac: 0.5}},
			{at: 0.3, kind: touchStall},
			{at: 0.4, kind: touchChains, chains: [][]KernelSpec{chain}},
		}},
	}
	var total runStats
	for n := 0; n < 1500; n++ {
		var sc scenario
		if n < len(directed) {
			sc = directed[n]
		} else {
			sc = randomScenario(rng)
		}
		want, _, _ := runScenario(sc, true)
		got, _, st := runScenario(sc, false)
		total.coalesced += st.coalesced
		total.hits += st.hits
		total.tieHits += st.tieHits
		total.outsideTieHits += st.outsideTieHits
		if len(got) != len(want) {
			t.Fatalf("scenario %d: %d observations, reference %d\n got %v\nwant %v", n, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i].what != want[i].what || math.Float64bits(got[i].v) != math.Float64bits(want[i].v) {
				t.Fatalf("scenario %d: observation %d is %s=%v, reference %s=%v", n, i, got[i].what, got[i].v, want[i].what, want[i].v)
			}
		}
	}
	t.Logf("coalesced %d kernels; %d touches materialized a replay, %d on a boundary (%d from outside the run loop)",
		total.coalesced, total.hits, total.tieHits, total.outsideTieHits)
	if total.coalesced == 0 || total.hits == 0 || total.tieHits == total.outsideTieHits || total.outsideTieHits == 0 {
		t.Errorf("scenarios missed a path: %+v", total)
	}
}

// TestCoalescedCountsSoloKernels pins what Coalesced counts: every kernel of
// a chain that runs alone, and only the tail of a chain whose sibling
// finished first.
func TestCoalescedCountsSoloKernels(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	solo := []KernelSpec{
		{Name: "a0", Work: 1, SMFrac: 0.5},
		{Name: "a1", Work: 2, SMFrac: 0.8, MemFrac: 0.3},
		{Name: "a2", Work: 0.5, SMFrac: 1, MemFrac: 0.9},
	}
	d.RunChain(solo, nil)
	eng.Run()
	if d.Coalesced() != 3 || d.Launched() != 3 {
		t.Errorf("solo chain: Coalesced %d, Launched %d; want 3, 3", d.Coalesced(), d.Launched())
	}
	d.RunChain(solo, nil)
	d.RunChain(solo[:1], nil) // finishes with a0, leaving a1 and a2 alone
	eng.Run()
	if d.Coalesced() != 5 || d.Launched() != 7 {
		t.Errorf("after siblings: Coalesced %d, Launched %d; want 5, 7", d.Coalesced(), d.Launched())
	}
}

// TestCoalescedChainZeroAllocs asserts that a chain running alone, replayed
// inline, allocates nothing once the engine and device pools are warm.
func TestCoalescedChainZeroAllocs(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	chain := randomChain(rand.New(rand.NewSource(1)))
	done := func(any) {}
	cycle := func() {
		d.RunChainArg(chain, done, nil)
		eng.Run()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("solo chain cycle allocated %v times per run, want 0", allocs)
	}
	if got, want := d.Coalesced(), d.Launched(); got != want {
		t.Errorf("Coalesced %d of %d launched kernels; the solo chain left the replay", got, want)
	}
}
