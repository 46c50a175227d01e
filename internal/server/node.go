package server

import (
	"sync"

	"abacus/internal/admit"
	"abacus/internal/dnn"
	"abacus/internal/fleet"
	"abacus/internal/realtime"
	"abacus/internal/sched"
	"abacus/internal/trace"
)

// node is one per-GPU serving engine behind the gateway: the shared
// fleet stack (device, Abacus runtime, admission controller, predict cache,
// calibration tracker, router mirrors) driven in wall-clock time by a
// realtime bridge, plus the gateway's idempotency state and admission
// mailbox. Every non-atomic field is owned by the node's bridge loop
// goroutine.
type node struct {
	*fleet.Node
	bridge *realtime.Bridge

	pending    map[*sched.Query]*pending
	byID       map[string]*pending
	recent     *outcomeCache
	duplicates int64
	routed     int64 // queries the router sent here
	migratedIn int64 // routed here while a degraded sibling also hosted the service

	// Admission mailbox: handler goroutines enqueue admitMsgs here and a
	// per-node combiner goroutine (admitLoop, started by Server.Start) flows
	// whole batches through one bridge injection — one loop round trip per
	// burst instead of one per query. FIFO order is preserved, and in unpaced
	// mode the engine drains between batch entries, so admit/reject verdicts
	// stay byte-identical to the one-injection-per-query gateway.
	mboxMu   sync.Mutex
	mbox     []*admitMsg
	mboxFree []*admitMsg   // loop-owned spare backing array, ping-ponged with mbox
	mboxWake chan struct{} // cap 1: "the mailbox is non-empty"
	mboxStop bool
}

// admitMsg is one admission request in flight through a node's mailbox.
// The handler owns it before enqueue and after done fires; the node's
// combiner owns it in between. Pooled: done is a reusable 1-buffered
// channel, so the steady-state enqueue path allocates nothing.
type admitMsg struct {
	svc        int // node-local service index
	global     int // gateway-global service index
	in         dnn.Input
	deadlineMS float64
	requestID  string
	migrated   bool

	// Results, valid once done has fired.
	d        admit.Decision
	pend     *pending
	dup      *pending
	cached   *pending
	draining bool

	done chan struct{}
}

var admitMsgPool = sync.Pool{New: func() any {
	return &admitMsg{done: make(chan struct{}, 1)}
}}

func getAdmitMsg() *admitMsg { return admitMsgPool.Get().(*admitMsg) }

func putAdmitMsg(m *admitMsg) {
	done := m.done
	*m = admitMsg{done: done}
	admitMsgPool.Put(m)
}

// newNode builds one node hosting the given model subset. global maps the
// node-local service order onto gateway service indices (nil: every model in
// order); onResult receives every finished query on the node's loop;
// onEvict fires when a completed request ID ages out of the node's
// idempotency cache.
func newNode(cfg Config, id int, models []dnn.ModelID, global []int,
	onResult func(*node, *sched.Query), onEvict func(string)) (*node, error) {
	n := &node{
		pending:  make(map[*sched.Query]*pending),
		byID:     make(map[string]*pending),
		recent:   newOutcomeCache(cfg.DedupeWindow, onEvict),
		mboxWake: make(chan struct{}, 1),
	}
	var err error
	n.Node, err = fleet.NewNode(fleet.Config{
		ID:           id,
		Models:       models,
		Global:       global,
		QoSFactor:    cfg.QoSFactor,
		Base:         cfg.Model,
		Sched:        cfg.Sched,
		SyncCost:     cfg.SyncCost,
		QueueCap:     cfg.QueueCap,
		Degrade:      cfg.Degrade,
		Calib:        cfg.Calib,
		PredictCache: cfg.PredictCache,
		OnResult:     func(q *sched.Query) { onResult(n, q) },
	})
	if err != nil {
		return nil, err
	}
	n.bridge = realtime.New(n.RT.Engine(), cfg.Speedup)
	return n, nil
}

// enqueue hands one admission request to the node's combiner. It reports
// false when the mailbox has already shut down (the gateway is draining);
// otherwise the caller must wait on m.done before reading results.
func (n *node) enqueue(m *admitMsg) bool {
	n.mboxMu.Lock()
	if n.mboxStop {
		n.mboxMu.Unlock()
		return false
	}
	n.mbox = append(n.mbox, m)
	select {
	case n.mboxWake <- struct{}{}:
	default:
	}
	n.mboxMu.Unlock()
	return true
}

// mailboxIdle reports whether no admission request is queued. Used by the
// autoscaler's drain to decide the node has gone quiescent.
func (n *node) mailboxIdle() bool {
	n.mboxMu.Lock()
	defer n.mboxMu.Unlock()
	return len(n.mbox) == 0
}

// stopMailbox shuts the mailbox down: queued messages are answered as
// draining and admitLoop exits once the wake channel drains. Idempotent;
// call after the bridge has stopped so no admission can slip past Drain.
func (n *node) stopMailbox() {
	n.mboxMu.Lock()
	if n.mboxStop {
		n.mboxMu.Unlock()
		return
	}
	n.mboxStop = true
	rest := n.mbox
	n.mbox = nil
	close(n.mboxWake)
	n.mboxMu.Unlock()
	for _, m := range rest {
		m.draining = true
		m.done <- struct{}{}
	}
}

// admitLoop is the node's combiner goroutine: it swaps the mailbox empty,
// runs the whole batch through a single bridge injection, and repeats. While
// the loop goroutine is deciding one batch, handler goroutines decode and
// enqueue the next and earlier handlers encode their responses — the
// decode → admit/submit → encode pipeline overlaps across requests.
func (n *node) admitLoop(s *Server) {
	for range n.mboxWake {
		for {
			n.mboxMu.Lock()
			if len(n.mbox) == 0 {
				n.mboxMu.Unlock()
				break
			}
			batch := n.mbox
			n.mbox = n.mboxFree[:0]
			n.mboxMu.Unlock()

			err := n.bridge.Do(func() {
				for i, m := range batch {
					if i > 0 {
						// Catch the engine up between entries so each verdict
						// sees exactly the state a one-injection-per-query
						// gateway would have seen: in unpaced mode the engine
						// drains fully (byte-identical decisions), in paced
						// mode completions due by now fire before the next
						// backlog estimate.
						n.bridge.CatchUp()
					}
					n.admitOne(s, m)
					m.done <- struct{}{}
				}
			})
			if err != nil {
				// Bridge stopped mid-flight: every queued handler gets the
				// draining verdict.
				for _, m := range batch {
					m.draining = true
					m.done <- struct{}{}
				}
			}
			clear(batch)
			n.mboxFree = batch[:0]
		}
	}
}

// admitOne renders one admission verdict on the loop goroutine: duplicate
// suppression, capture, decide, submit. Mirrors the PR-3 per-query Do body.
func (n *node) admitOne(s *Server, m *admitMsg) {
	if s.draining.Load() {
		m.draining = true
		return
	}
	if m.requestID != "" {
		if p, ok := n.byID[m.requestID]; ok {
			m.dup = p
			n.duplicates++
			return
		}
		if p, ok := n.recent.get(m.requestID); ok {
			m.cached = p
			n.duplicates++
			return
		}
	}
	now := n.RT.Engine().Now()
	if s.cfg.Capture != nil {
		s.cfg.Capture.Record(trace.Arrival{Time: float64(now), Service: m.global, Input: m.in})
	}
	var q *sched.Query
	if m.d, q = n.Admit(now, m.svc, m.in, m.deadlineMS); q == nil {
		return
	}
	p := &pending{
		q:      q,
		id:     m.requestID,
		predMS: m.d.PredMS,
		workMS: m.d.WorkMS,
		done:   make(chan struct{}),
	}
	n.pending[q] = p
	if m.requestID != "" {
		n.byID[m.requestID] = p
	}
	n.routed++
	if m.migrated {
		n.migratedIn++
	}
	m.pend = p
}
