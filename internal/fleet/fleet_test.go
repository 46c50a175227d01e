package fleet

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"abacus/internal/cluster"
	"abacus/internal/dnn"
	"abacus/internal/scaler"
	"abacus/internal/sched"
)

// stub is a router-only node: the hosted-service map and the mirrors, no
// runtime behind them.
func stub(id int, global ...int) *Node {
	return &Node{ID: id, Global: global, degraded: make([]atomic.Bool, len(global))}
}

func (n *Node) setLoad(ms float64) { n.loadMS.Store(math.Float64bits(ms)) }

// want is one expected routing decision.
type want struct {
	svc, owner int
	id, local  int
	migrated   bool
}

// step is one routing decision, then an optional lifecycle change.
type step struct {
	want
	then scaler.Advice
}

func TestRoute(t *testing.T) {
	cases := []struct {
		name string
		// setup builds the fleet; probeNext makes the first decision a
		// probe turn. decisions, when set, is the expected sum of the probe
		// counters afterwards: a sticky follow is not a routing decision.
		setup     func() *Fleet[*Node]
		probeNext bool
		steps     []step
		decisions int64
	}{{
		name: "non-uniform placement remaps the local index",
		setup: func() *Fleet[*Node] {
			a, b := stub(0, 0, 1), stub(1, 2, 0)
			a.setLoad(5)
			return New(3, a, b)
		},
		steps: []step{
			{want: want{svc: 0, owner: -1, id: 1, local: 1}},
			{want: want{svc: 1, owner: -1, id: 0, local: 1}},
			{want: want{svc: 2, owner: -1, id: 1, local: 0}},
		},
	}, {
		name: "least-loaded ties go to the lowest id",
		setup: func() *Fleet[*Node] {
			return New(1, stub(0, 0), stub(1, 0), stub(2, 0))
		},
		steps: []step{{want: want{svc: 0, owner: -1, id: 0}}},
	}, {
		name: "degraded replica is skipped and the pick is migrated",
		setup: func() *Fleet[*Node] {
			a, b := stub(0, 0), stub(1, 0)
			a.degraded[0].Store(true)
			b.setLoad(9)
			return New(1, a, b)
		},
		steps: []step{{want: want{svc: 0, owner: -1, id: 1, migrated: true}}},
	}, {
		name: "probe turn ignores the health filter",
		setup: func() *Fleet[*Node] {
			a, b := stub(0, 0), stub(1, 0)
			a.degraded[0].Store(true)
			b.setLoad(9)
			return New(1, a, b)
		},
		probeNext: true,
		steps: []step{
			{want: want{svc: 0, owner: -1, id: 0}},
			{want: want{svc: 0, owner: -1, id: 1, migrated: true}},
		},
	}, {
		name: "all degraded falls back to every replica",
		setup: func() *Fleet[*Node] {
			a, b := stub(0, 0), stub(1, 0)
			a.degraded[0].Store(true)
			b.degraded[0].Store(true)
			a.setLoad(3)
			return New(1, a, b)
		},
		steps: []step{{want: want{svc: 0, owner: -1, id: 1}}},
	}, {
		name: "warming node serves only probe turns",
		setup: func() *Fleet[*Node] {
			f := New(1, stub(0, 0))
			f.Load().Nodes()[0].setLoad(5)
			f.Apply(scaler.Advice{Add: []int{1}}, func(id int) *Node { return stub(id, 0) })
			return f
		},
		probeNext: true,
		steps: []step{
			{want: want{svc: 0, owner: -1, id: 1}},
			{want: want{svc: 0, owner: -1, id: 0}},
		},
	}, {
		name: "warming nodes serve when nothing is active",
		setup: func() *Fleet[*Node] {
			f := New(1, stub(0, 0))
			f.Apply(scaler.Advice{Add: []int{1}, Drain: []int{0}}, func(id int) *Node { return stub(id, 0) })
			return f
		},
		steps: []step{{want: want{svc: 0, owner: -1, id: 1}}},
	}, {
		name: "draining and retired nodes are skipped",
		setup: func() *Fleet[*Node] {
			f := New(1, stub(0, 0), stub(1, 0), stub(2, 0))
			f.Load().Nodes()[0].setLoad(5)
			f.Apply(scaler.Advice{Drain: []int{1, 2}}, nil)
			f.Retire(2)
			return f
		},
		probeNext: true,
		steps: []step{
			{want: want{svc: 0, owner: -1, id: 0}},
			{want: want{svc: 0, owner: -1, id: 0}},
		},
	}, {
		name: "sticky owner is followed, then remapped once it drains",
		setup: func() *Fleet[*Node] {
			f := New(1, stub(0, 0), stub(1, 0), stub(2, 0))
			f.Load().Nodes()[0].setLoad(5)
			return f
		},
		steps: []step{
			{want: want{svc: 0, owner: 2, id: 2}, then: scaler.Advice{Drain: []int{2}}},
			{want: want{svc: 0, owner: 2, id: 1}},
		},
		decisions: 1,
	}, {
		name: "owner not hosting the service is ignored",
		setup: func() *Fleet[*Node] {
			return New(2, stub(0, 0), stub(1, 1))
		},
		steps: []step{{want: want{svc: 1, owner: 0, id: 1}}},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := c.setup()
			if c.probeNext {
				for i := range f.probes {
					f.probes[i].Store(probeEvery - 1)
				}
			}
			for i, st := range c.steps {
				w := st.want
				p := f.Route(w.svc, w.owner)
				got := want{svc: w.svc, owner: w.owner, id: p.Node.ID, local: p.Local, migrated: p.Migrated}
				if got != w {
					t.Errorf("step %d: got %+v, want %+v", i, got, w)
				}
				f.Apply(st.then, nil)
			}
			var decisions int64
			for i := range f.probes {
				decisions += f.probes[i].Load()
			}
			if c.decisions > 0 && decisions != c.decisions {
				t.Errorf("%d routing decisions counted, want %d", decisions, c.decisions)
			}
		})
	}
}

// TestRouteAgreesWithLeastLoaded pins the router to the offline cluster
// simulator's policy: with every replica healthy and active, the pick is
// cluster.LeastLoaded over the node ids, ties included.
func TestRouteAgreesWithLeastLoaded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nodes := make([]*Node, 5)
	ids := make([]int, len(nodes))
	for i := range nodes {
		nodes[i], ids[i] = stub(i, 0), i
	}
	f := New(1, nodes...)
	loads := make([]float64, len(nodes))
	for trial := 0; trial < 500; trial++ {
		for i, n := range nodes {
			loads[i] = float64(rng.Intn(4)) // coarse, so ties are common
			n.setLoad(loads[i])
		}
		want := cluster.LeastLoaded(ids, func(i int) float64 { return loads[i] })
		if got := f.Route(0, -1).Node.ID; got != want {
			t.Fatalf("trial %d loads %v: routed to %d, LeastLoaded %d", trial, loads, got, want)
		}
	}
}

// TestRouteZeroAllocs routes over the shed benchmark's layout — two nodes
// each hosting all four services — through probe turns and with one
// replica's drift detector tripped: the decision allocates nothing.
func TestRouteZeroAllocs(t *testing.T) {
	models := []dnn.ModelID{dnn.ResNet50, dnn.ResNet152, dnn.InceptionV3, dnn.Bert}
	var nodes []*Node
	for id := 0; id < 2; id++ {
		n, err := NewNode(Config{ID: id, Models: models, QueueCap: 64})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	nodes[1].degraded[2].Store(true)
	f := New(len(models), nodes...)
	var svc, migrated int
	allocs := testing.AllocsPerRun(4*probeEvery*8, func() {
		if f.Route(svc, -1).Migrated {
			migrated++
		}
		svc = (svc + 1) % len(models)
	})
	if allocs != 0 {
		t.Fatalf("Route allocates %.1f/op; want 0", allocs)
	}
	if migrated == 0 {
		t.Error("degraded replica never caused a migration")
	}
}

// TestRouteWhileSwapping routes from several goroutines while the lifecycle
// replaces the snapshot underneath them (run with -race).
func TestRouteWhileSwapping(t *testing.T) {
	f := New(2, stub(0, 0, 1))
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				p := f.Route(i%2, g-1)
				if ph := f.Load().Phase(p.Node.ID); ph == scaler.Retired {
					t.Errorf("routed to retired node %d", p.Node.ID)
					return
				}
			}
		}(g)
	}
	build := func(id int) *Node { return stub(id, 1, 0) }
	for id := 1; id <= 200; id++ {
		f.Apply(scaler.Advice{Add: []int{id}}, build)
		f.Apply(scaler.Advice{Promote: []int{id}}, nil)
		if id > 1 {
			f.Apply(scaler.Advice{Drain: []int{id - 1}}, nil)
			f.Retire(id - 1)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestFinishSortsOutcomes checks the completion sink: exactly one outcome
// per query, the backlog booked at admission released, and the mirrors
// republished.
func TestFinishSortsOutcomes(t *testing.T) {
	n, err := NewNode(Config{Models: []dnn.ModelID{dnn.ResNet50}, QueueCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	svc := n.RT.Services()[0]
	cases := []struct {
		q    sched.Query
		want Outcome
	}{
		{sched.Query{Service: svc, Arrival: 10, Finish: 12}, Good},
		{sched.Query{Service: svc, Arrival: 10, Finish: 10 + svc.QoS + 1}, Violated},
		{sched.Query{Service: svc, Arrival: 10, Finish: 11, Dropped: true}, Dropped},
	}
	in := dnn.Input{Batch: 1}
	for _, c := range cases {
		d, q := n.Admit(n.RT.Engine().Now(), 0, in, 0)
		if q == nil || n.load() != d.WorkMS || d.WorkMS <= 0 {
			t.Fatalf("admission %+v: mirror load %v", d, n.load())
		}
		if got := n.Finish(&c.q, d.PredMS, d.WorkMS); got != c.want {
			t.Errorf("%+v: outcome %v, want %v", c.q, got, c.want)
		}
		if n.load() != 0 || n.Adm.Outstanding(0) != 0 {
			t.Errorf("backlog %v / outstanding %d not released", n.load(), n.Adm.Outstanding(0))
		}
	}
}
