package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"abacus/internal/predictor"
)

// maxSpans caps the spans one run keeps in memory and writes out. Later
// spans are counted but not stored, so the span file stays a bounded sample.
const maxSpans = 100_000

// span is one timed call across a layer boundary. Parent 0 means the span
// is a root. RequestID groups the spans of one gateway request.
type span struct {
	ID, Parent uint64
	Name       string
	RequestID  string
	Start, End int64 // ns since the tracer's epoch
}

// tracer records spans in memory from any goroutine. A nil *tracer is the
// untraced mode: every method is a no-op, so call sites need no branches.
type tracer struct {
	epoch   time.Time
	nextID  atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 4096)}
}

// now returns ns since the tracer's epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id and start time; end closes it.
func (t *tracer) begin() (id uint64, start int64) {
	if t == nil {
		return 0, 0
	}
	return t.nextID.Add(1), t.now()
}

func (t *tracer) end(id, parent uint64, name, requestID string, start int64) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, RequestID: requestID, Start: start, End: t.now()}
	t.mu.Lock()
	// Roots are always kept: they end last and anchor the table.
	if len(t.spans) < maxSpans || parent == 0 {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Name    string
	Count   int
	TotalMS float64
	SelfMS  float64
	P50US   float64
}

// table aggregates the stored spans by name. A span's self time is its
// duration minus the union of its children's intervals, clipped to it.
func (t *tracer) table() []layerRow {
	kids := make(map[uint64][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	type agg struct {
		total, self int64
		durs        []float64
	}
	by := map[string]*agg{}
	for _, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		d := s.End - s.Start
		a.total += d
		a.self += d - covered(kids[s.ID], s.Start, s.End)
		a.durs = append(a.durs, float64(d)/1e3)
	}
	rows := make([]layerRow, 0, len(by))
	for name, a := range by {
		rows = append(rows, layerRow{
			Name: name, Count: len(a.durs),
			TotalMS: float64(a.total) / 1e6, SelfMS: float64(a.self) / 1e6,
			P50US: median(a.durs),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			sum += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return sum + curHi - curLo
}

// spanPath is where a traced run writes its spans: one file per workload,
// replaced by the next traced run of that workload.
func spanPath(o options) string { return filepath.Join(o.spansDir, o.workload+".jsonl") }

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	var line []byte
	for _, s := range t.spans {
		line = append(line[:0], `{"name":`...)
		line = strconv.AppendQuote(line, s.Name)
		line = append(line, `,"id":`...)
		line = strconv.AppendUint(line, s.ID, 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendUint(line, s.Parent, 10)
		line = append(line, `,"request_id":`...)
		line = strconv.AppendQuote(line, s.RequestID)
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, s.Start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.End, 10)
		line = append(line, "}\n"...)
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// printTable prints the per-layer span table.
func (t *tracer) printTable() {
	fmt.Printf("%-28s %9s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "p50_us")
	for _, r := range t.table() {
		fmt.Printf("%-28s %9d %12.3f %12.3f %10.3f\n", r.Name, r.Count, r.TotalMS, r.SelfMS, r.P50US)
	}
	if t.dropped > 0 {
		fmt.Printf("(%d spans beyond the %d cap were counted but not stored)\n", t.dropped, maxSpans)
	}
}

// timedModel wraps the duration model the benchmark hands the program and
// counts and times every call into it. It is safe for concurrent use: a
// multi-node gateway shares one model across its node loops. Its spans
// hang off the run's root span, since the node loop that calls it does not
// know which request it is serving.
type timedModel struct {
	inner  predictor.LatencyModel
	tr     *tracer
	root   uint64
	calls  atomic.Int64
	groups atomic.Int64
	selfNS atomic.Int64
}

func (m *timedModel) Predict(g predictor.Group) float64 {
	id, t0 := m.tr.begin()
	start := time.Now()
	v := m.inner.Predict(g)
	m.selfNS.Add(int64(time.Since(start)))
	m.tr.end(id, m.root, "predictor.Predict", "", t0)
	m.calls.Add(1)
	m.groups.Add(1)
	return v
}

func (m *timedModel) PredictBatch(gs []predictor.Group) []float64 {
	id, t0 := m.tr.begin()
	start := time.Now()
	v := m.inner.PredictBatch(gs)
	m.selfNS.Add(int64(time.Since(start)))
	m.tr.end(id, m.root, "predictor.PredictBatch", "", t0)
	m.calls.Add(1)
	m.groups.Add(int64(len(gs)))
	return v
}
