package fleet

import (
	"fmt"
	"slices"
	"sync/atomic"

	"abacus/internal/scaler"
)

// probeEvery is the quarantine-probe cadence: every Nth routing decision
// per service ignores the health filter and also considers warming nodes.
// A quarantined replica thus keeps receiving a trickle of traffic: its drift
// EWMA tracks reality, and a replica that healed (or tripped on a startup
// transient) decays below the exit ratio and rejoins instead of staying
// frozen out because no completion ever updates it. The same trickle warms
// a newly added node's calibration and drift trackers without betting real
// load on an unwarmed stack.
const probeEvery = 16

// Host is a host's node type: anything that embeds *Node.
type Host interface{ Stack() *Node }

// replica is one routable node hosting a service.
type replica struct {
	id    int // node id
	local int // the service's node-local index there
	node  *Node
}

// Snapshot is one immutable view of the fleet. A static fleet is a snapshot
// that is never replaced.
type Snapshot[N Host] struct {
	nodes  []N            // id-indexed: every node ever added
	phases []scaler.Phase // id-indexed
	hosts  [][]replica    // service → warming and active replicas, id order
}

// Nodes returns every node ever added, indexed by id. Callers must not
// modify the slice.
func (s *Snapshot[N]) Nodes() []N { return s.nodes }

// Phase returns node id's lifecycle phase.
func (s *Snapshot[N]) Phase(id int) scaler.Phase { return s.phases[id] }

// Owner reports whether node id is a routable (warming or active) replica
// of service svc, and the service's local index there.
func (s *Snapshot[N]) Owner(svc, id int) (n N, local int, ok bool) {
	for _, r := range s.hosts[svc] {
		if r.id == id {
			return s.nodes[id], r.local, true
		}
	}
	return n, 0, false
}

// Fleet is the node set behind an atomic snapshot pointer plus the
// per-service probe counters. Route is safe from any goroutine; Apply and
// Retire replace the snapshot copy-on-write and must be serialized by the
// host.
type Fleet[N Host] struct {
	snap   atomic.Pointer[Snapshot[N]]
	probes []atomic.Int64 // service → routing decisions
}

// New builds a fleet of the given active nodes (ids 0..len-1) serving
// services services.
func New[N Host](services int, nodes ...N) *Fleet[N] {
	f := &Fleet[N]{probes: make([]atomic.Int64, services)}
	phases := make([]scaler.Phase, len(nodes))
	for i := range phases {
		phases[i] = scaler.Active
	}
	f.store(nodes, phases)
	return f
}

// Load returns the current snapshot.
func (f *Fleet[N]) Load() *Snapshot[N] { return f.snap.Load() }

func (f *Fleet[N]) store(nodes []N, phases []scaler.Phase) {
	hosts := make([][]replica, len(f.probes))
	for id, n := range nodes {
		if phases[id] != scaler.Warming && phases[id] != scaler.Active {
			continue
		}
		st := n.Stack()
		for local, svc := range st.Global {
			hosts[svc] = append(hosts[svc], replica{id: id, local: local, node: st})
		}
	}
	f.snap.Store(&Snapshot[N]{nodes: nodes, phases: phases, hosts: hosts})
}

// Apply executes one control tick's advice: promoted nodes turn active,
// each added id is built by build and starts warming, drained nodes stop
// taking new work. It returns the added and drained nodes, which the host
// starts and retires (via Retire, once their in-flight work is done).
func (f *Fleet[N]) Apply(adv scaler.Advice, build func(id int) N) (added, drained []N) {
	cur := f.snap.Load()
	nodes, phases := slices.Clone(cur.nodes), slices.Clone(cur.phases)
	for _, id := range adv.Promote {
		phases[id] = scaler.Active
	}
	for _, id := range adv.Add {
		if id != len(nodes) {
			panic(fmt.Sprintf("fleet: advice adds node %d, fleet has %d", id, len(nodes)))
		}
		n := build(id)
		nodes = append(nodes, n)
		phases = append(phases, scaler.Warming)
		added = append(added, n)
	}
	for _, id := range adv.Drain {
		phases[id] = scaler.Draining
		drained = append(drained, nodes[id])
	}
	f.store(nodes, phases)
	return added, drained
}

// Retire marks a drained node retired.
func (f *Fleet[N]) Retire(id int) {
	cur := f.snap.Load()
	phases := slices.Clone(cur.phases)
	phases[id] = scaler.Retired
	f.store(cur.nodes, phases)
}

// Pick is one routing decision.
type Pick[N Host] struct {
	Node  N
	Local int // the service's node-local index on Node
	// Migrated reports that a degraded replica was skipped.
	Migrated bool
}

// Route picks the node for one query of service svc. A non-negative owner
// is the node a sticky request ID is pinned to: the query follows it while
// it is a routable replica of svc. Otherwise the decision advances svc's
// probe counter and picks the least-loaded active replica whose drift
// detector for svc is quiet, falling back to every active replica when all
// are degraded. Probe turns skip the health filter and admit warming nodes
// too; warming nodes also serve when no replica is active. Ties go to the
// lowest id. Route allocates nothing.
func (f *Fleet[N]) Route(svc, owner int) Pick[N] {
	s := f.snap.Load()
	if owner >= 0 {
		if n, local, ok := s.Owner(svc, owner); ok {
			return Pick[N]{Node: n, Local: local}
		}
	}
	probe := f.probes[svc].Add(1)%probeEvery == 0
	r, migrated, ok := s.pick(svc, probe, probe)
	if !ok {
		r, migrated, ok = s.pick(svc, probe, true)
	}
	if !ok {
		panic(fmt.Sprintf("fleet: no routable replica hosts service %d", svc))
	}
	return Pick[N]{Node: s.nodes[r.id], Local: r.local, Migrated: migrated}
}

// pick is one pass over svc's replicas, considering warming ones only when
// warming is set. It tracks the least-loaded candidate and the least-loaded
// healthy one; off probe turns the healthy one wins when there is one.
func (s *Snapshot[N]) pick(svc int, probe, warming bool) (r replica, migrated, ok bool) {
	reps := s.hosts[svc]
	best, bestHealthy := -1, -1
	var load, loadHealthy float64
	cands, healthy := 0, 0
	for i, c := range reps {
		if !warming && s.phases[c.id] == scaler.Warming {
			continue
		}
		l := c.node.load()
		if cands == 0 || l < load {
			best, load = i, l
		}
		cands++
		if probe || c.node.degraded[c.local].Load() {
			continue
		}
		if healthy == 0 || l < loadHealthy {
			bestHealthy, loadHealthy = i, l
		}
		healthy++
	}
	switch {
	case cands == 0:
		return r, false, false
	case healthy > 0:
		return reps[bestHealthy], healthy < cands, true
	default:
		return reps[best], false, true
	}
}
