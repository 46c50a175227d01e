// Package sim implements the deterministic discrete-event simulation engine
// that drives the Abacus reproduction. All simulated time is expressed in
// milliseconds on a virtual clock. Events scheduled for the same instant are
// executed in scheduling order, so a run is bit-for-bit reproducible.
//
// The engine recycles event objects through an intrusive free list: firing
// or canceling an event returns it to the pool, so steady-state scheduling
// is allocation-free. Handles returned by Schedule are generation-counted —
// a handle kept past its event's firing (or cancellation) goes stale and
// can never cancel the recycled event's next incarnation. Pool state is
// invisible to the virtual clock: a warm engine and a cold engine replay
// identical workloads identically.
package sim

import (
	"container/heap"
	"fmt"
)

// Time is a point on (or a span of) the virtual clock, in milliseconds.
type Time = float64

// Event is a pooled scheduled callback. Callers never hold *Event directly;
// Schedule returns a generation-counted Handle instead, so recycled events
// cannot be canceled through stale references.
type Event struct {
	at    Time
	seq   uint64
	index int    // heap index; -1 once popped or canceled
	gen   uint64 // bumped on every recycle; stale handles fail the check
	fn    func(any)
	arg   any
	next  *Event // free-list link while pooled
}

// Handle identifies one scheduled event incarnation. The zero Handle is
// inert: Cancel returns false and At returns 0. A Handle kept after its
// event fired or was canceled is stale — Cancel on it is a no-op even if
// the underlying Event object has been recycled for a new incarnation.
type Handle struct {
	ev  *Event
	gen uint64
	at  Time
}

// At returns the virtual time the event is (or was) scheduled to fire.
func (h Handle) At() Time { return h.at }

// Active reports whether the handle's event incarnation is still pending.
func (h Handle) Active() bool {
	return h.ev != nil && h.ev.gen == h.gen && h.ev.index >= 0
}

// eventHeap orders events by (time, insertion sequence).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event simulator. The zero value is
// not usable; construct with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	pending eventHeap
	free    *Event // intrusive free list of recycled events
	freeLen int
	alloced int // total Event objects ever allocated (diagnostics)
	running bool
	// firing is the insertion sequence of the event whose callback is
	// running, or of the last one run; Run and RunUntil set it past every
	// sequence on return, since every event due by now has then fired.
	firing uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in milliseconds.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int { return len(e.pending) }

// FreeEvents reports the number of recycled events waiting in the pool.
func (e *Engine) FreeEvents() int { return e.freeLen }

// AllocatedEvents reports the total number of Event objects this engine has
// ever allocated — in steady state it stops growing: every Schedule is
// served from the free list.
func (e *Engine) AllocatedEvents() int { return e.alloced }

// Prewarm stocks the free list with n events so even the first scheduling
// burst allocates nothing. Pool state never affects the virtual clock;
// tests use Prewarm to pin that transparency.
func (e *Engine) Prewarm(n int) {
	for i := 0; i < n; i++ {
		ev := &Event{index: -1}
		e.alloced++
		ev.next = e.free
		e.free = ev
		e.freeLen++
	}
}

// NextAt returns the timestamp of the earliest pending event, or false when
// the queue is empty. Real-time drivers use it to decide how long to sleep
// before the next event is due.
func (e *Engine) NextAt() (Time, bool) {
	if len(e.pending) == 0 {
		return 0, false
	}
	return e.pending[0].at, true
}

// acquire returns a pooled event, allocating only when the pool is dry.
func (e *Engine) acquire() *Event {
	if ev := e.free; ev != nil {
		e.free = ev.next
		ev.next = nil
		e.freeLen--
		return ev
	}
	e.alloced++
	return &Event{index: -1}
}

// recycle bumps the event's generation (invalidating outstanding handles),
// clears its payload, and returns it to the free list.
func (e *Engine) recycle(ev *Event) {
	ev.gen++
	ev.fn = nil
	ev.arg = nil
	ev.next = e.free
	e.free = ev
	e.freeLen++
}

// callFunc0 adapts a plain func() callback to the engine's (fn, arg) event
// payload. Func values are pointer-shaped, so boxing one into the arg
// interface does not allocate.
func callFunc0(a any) { a.(func())() }

// Schedule registers fn to run after delay milliseconds of virtual time and
// returns a handle that can be passed to Cancel. A negative delay panics:
// scheduling into the past would break causality.
func (e *Engine) Schedule(delay Time, fn func()) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt registers fn to run at absolute virtual time t. It panics if t
// is before the current time.
func (e *Engine) ScheduleAt(t Time, fn func()) Handle {
	if fn == nil {
		panic("sim: nil event callback")
	}
	return e.ScheduleArgAt(t, callFunc0, fn)
}

// ScheduleArg registers fn(arg) to run after delay milliseconds. It is the
// allocation-free variant of Schedule: fn is typically a package-level
// function and arg a long-lived pointer, so no closure is created and the
// pooled event is the only storage — 0 allocs/op in steady state.
func (e *Engine) ScheduleArg(delay Time, fn func(any), arg any) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.ScheduleArgAt(e.now+delay, fn, arg)
}

// ScheduleArgAt registers fn(arg) to run at absolute virtual time t. It
// panics if t is before the current time or fn is nil.
func (e *Engine) ScheduleArgAt(t Time, fn func(any), arg any) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	ev := e.acquire()
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	ev.arg = arg
	e.seq++
	heap.Push(&e.pending, ev)
	return Handle{ev: ev, gen: ev.gen, at: t}
}

// Cancel removes a scheduled event. Canceling an event that already fired,
// was already canceled, or whose Event object has since been recycled for a
// newer incarnation is a no-op and returns false.
func (e *Engine) Cancel(h Handle) bool {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.index < 0 {
		return false
	}
	heap.Remove(&e.pending, ev.index)
	e.recycle(ev)
	return true
}

// Step fires the earliest pending event, advancing the clock to its time. It
// returns false when no events are pending. The event is recycled before
// its callback runs, so a callback that immediately reschedules reuses the
// just-fired event object.
func (e *Engine) Step() bool {
	if len(e.pending) == 0 {
		return false
	}
	ev := heap.Pop(&e.pending).(*Event)
	e.now = ev.at
	e.firing = ev.seq
	fn, arg := ev.fn, ev.arg
	e.recycle(ev)
	fn(arg)
	return true
}

// Precedes reports whether the engine's position — the event whose
// callback is running, or the last one run — was scheduled before the
// pending event h: an event scheduled after h and due now has then not yet
// fired. It is false when h is not pending, and after Run or RunUntil
// returns, when every event due by Now has fired. A component that replays
// its own future events inline uses it to tell whether one of them due now
// would already have fired.
func (e *Engine) Precedes(h Handle) bool {
	return h.Active() && e.firing < h.ev.seq
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	e.guardReentry()
	defer e.settle()
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline and then advances the
// clock to exactly deadline (even if the queue drained earlier).
func (e *Engine) RunUntil(deadline Time) {
	if deadline < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", deadline, e.now))
	}
	e.guardReentry()
	defer e.settle()
	for len(e.pending) > 0 && e.pending[0].at <= deadline {
		e.Step()
	}
	e.now = deadline
}

// settle ends a run loop: every event due by now has fired.
func (e *Engine) settle() {
	e.running = false
	e.firing = ^uint64(0)
}

func (e *Engine) guardReentry() {
	if e.running {
		panic("sim: engine run loop re-entered")
	}
	e.running = true
}
