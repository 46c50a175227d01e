// Package fleet is the serving control plane shared by the HTTP gateway
// (internal/server, wall clock) and the chaos harness (internal/chaos,
// virtual clock). It owns what must behave identically in both hosts for an
// admission verdict to be deterministic:
//
//   - the per-GPU node stack: base model → calibration → memo → Abacus
//     runtime → admitter (NewNode);
//   - admission (Node.Admit) and the completion sink that settles every
//     admitted query into exactly one of good, violated or dropped
//     (Node.Finish);
//   - the fleet lifecycle: one immutable Snapshot of warming, active,
//     draining and retired nodes, advanced from scaler.Advice;
//   - the router: sticky owner, quarantine-probe cadence, healthy-first
//     least-loaded choice (Fleet.Route).
//
// The hosts keep what differs between them: the gateway its bridge,
// mailbox, idempotency caches and HTTP; the harness its engine events,
// fault windows, virtual client and reports.
package fleet

import (
	"math"
	"sync/atomic"

	"abacus/internal/admit"
	"abacus/internal/calib"
	"abacus/internal/core"
	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/predictor"
	"abacus/internal/sched"
	"abacus/internal/sim"
)

// Config assembles one node's serving stack.
type Config struct {
	ID     int
	Models []dnn.ModelID // hosted models, in node-local service order
	// Global maps node-local service indices onto the host's service
	// indices; nil is the identity (the node hosts every service in order).
	Global    []int
	QoSFactor float64
	// Base is the duration model under calibration; nil selects the exact
	// oracle.
	Base     predictor.LatencyModel
	Sched    sched.Config
	SyncCost float64 // per-group synchronization cost (default 0.02 ms)
	QueueCap int
	Degrade  admit.DegradeConfig
	// Calib, when non-nil, wraps Base in a calib.Calibrated correction fed
	// by Finish; a refit of one service invalidates only that service's
	// cached predictions.
	Calib *calib.Config
	// PredictCache, when positive, memoizes the (calibrated) model with a
	// predictor.Memoized of that capacity.
	PredictCache int
	// Engine, when non-nil, puts the node's device on a shared engine (one
	// clock for several nodes); nil gives the node an engine of its own.
	Engine *sim.Engine
	// OnResult receives every finished or dropped query on the engine's
	// goroutine.
	OnResult func(*sched.Query)
}

// Node is one per-GPU serving stack plus the router-visible mirrors of its
// admission state. Everything except the mirrors is owned by the goroutine
// that drives the node's engine; the router reads only the mirrors.
type Node struct {
	ID      int
	Models  []dnn.ModelID
	Global  []int
	RT      *core.Runtime
	Adm     *admit.Admitter
	Memo    *predictor.Memoized // nil when the predict cache is off
	Tracker *calib.Tracker      // nil when calibration is off

	loadMS   atomic.Uint64 // predicted backlog, float64 bits
	degraded []atomic.Bool // per-local-service drift detector state
}

// NewNode builds one node's stack.
func NewNode(cfg Config) (*Node, error) {
	n := &Node{
		ID:       cfg.ID,
		Models:   cfg.Models,
		Global:   cfg.Global,
		degraded: make([]atomic.Bool, len(cfg.Models)),
	}
	if n.Global == nil {
		n.Global = make([]int, len(cfg.Models))
		for i := range n.Global {
			n.Global[i] = i
		}
	}
	profile := gpusim.A100Profile()
	model := cfg.Base
	if model == nil {
		model = predictor.Oracle{Profile: profile}
	}
	if cfg.Calib != nil {
		cc := *cfg.Calib
		// A refit moves exactly one service's correction, so only that
		// service's memoized solo predictions and the group signatures its
		// model appears in go stale. n.Adm and n.Memo are assigned below,
		// before any feedback can arrive.
		cc.OnUpdate = func(local int) {
			n.Adm.InvalidateService(local)
			if n.Memo != nil {
				n.Memo.InvalidateModel(n.Models[local])
			}
		}
		n.Tracker = calib.NewTracker(cc, cfg.Models)
		model = calib.NewCalibrated(model, n.Tracker)
	}
	if cfg.PredictCache > 0 {
		// The memo sits above calibration so cached values are corrected
		// predictions; refits invalidate per model via OnUpdate above.
		n.Memo = predictor.NewMemoized(model, cfg.PredictCache)
		model = n.Memo
	}
	var dev *gpusim.Device
	if cfg.Engine != nil {
		dev = gpusim.New(cfg.Engine, profile)
	}
	rt, err := core.New(core.Config{
		Models:    cfg.Models,
		QoSFactor: cfg.QoSFactor,
		Model:     model,
		Profile:   profile,
		Device:    dev,
		Sched:     cfg.Sched,
		SyncCost:  cfg.SyncCost,
		OnResult:  cfg.OnResult,
	})
	if err != nil {
		return nil, err
	}
	n.RT = rt
	syncCost := cfg.SyncCost
	if syncCost == 0 {
		syncCost = 0.02
	}
	n.Adm = admit.New(model, profile, rt.Services(), cfg.QueueCap, syncCost,
		admit.NewDegrade(cfg.Degrade, len(cfg.Models)))
	return n, nil
}

// Stack returns the node itself: host node types embed *Node, so this is
// how the fleet reaches the shared stack behind any of them.
func (n *Node) Stack() *Node { return n }

// Outcome is how an admitted query ended. The three are disjoint: a
// dropped query is not also a violation.
type Outcome int

const (
	Good     Outcome = iota // completed within its deadline
	Violated                // completed past its deadline
	Dropped                 // dropped by the controller
)

// Admit renders the admission verdict for one query of local service svc
// arriving now. An admitted query is submitted to the runtime, its backlog
// booked, and the router mirrors published; q is nil on rejection.
func (n *Node) Admit(now sim.Time, svc int, in dnn.Input, sloMS float64) (d admit.Decision, q *sched.Query) {
	d = n.Adm.Decide(now, svc, in, sloMS)
	if !d.OK {
		return d, nil
	}
	q = n.RT.SubmitSLO(svc, in, now, sloMS)
	n.Adm.Admitted(svc, d.WorkMS)
	n.publish()
	return d, q
}

// Finish settles one admitted query: it releases the backlog booked at
// admission, feeds the drift detector and the calibration tracker the
// margin-free prediction against what happened, publishes the router
// mirrors, and reports the outcome. Drops observe too — a drop is
// divergence at its loudest.
func (n *Node) Finish(q *sched.Query, predMS, workMS float64) Outcome {
	svc := q.Service.ID
	n.Adm.Finish(svc, workMS)
	n.Adm.Degrade().Observe(svc, predMS, q.Latency())
	if n.Tracker != nil {
		n.Tracker.ObserveAdmission(svc, workMS, predMS-workMS, q.Latency())
	}
	n.publish()
	switch {
	case q.Dropped:
		return Dropped
	case q.Violated():
		return Violated
	default:
		return Good
	}
}

// publish refreshes the router-visible mirrors after an admission-state
// change.
func (n *Node) publish() {
	n.loadMS.Store(math.Float64bits(n.Adm.BacklogMS()))
	for i := range n.degraded {
		n.degraded[i].Store(n.Adm.Degrade().Active(i))
	}
}

// load returns the last published predicted backlog (any goroutine).
func (n *Node) load() float64 { return math.Float64frombits(n.loadMS.Load()) }
