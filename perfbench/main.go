// Command perfbench is the repository benchmark. It drives one named
// workload through the public entry points of the Abacus reproduction —
// core.Runtime for the co-located node runtime, and the in-process gateway
// handler of internal/server — checks every answer, and prints every
// end-to-end metric (or, with -trace 1, every per-layer metric) by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// Usage (see README.md in this directory):
//
//	perfbench --workload colocate|ingest|shed --seed 1 --seconds 10 --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metric is one reported figure with its sample count. Its unit is fixed
// by name in e2eMetrics or layerMetrics.
type metric struct {
	Name  string
	Value float64
	N     int
}

// result is what a workload run reports.
type result struct {
	attempted, failed int64
	correct           bool
	e2e               []metric
	layer             []metric
	info              []metric // printed in the untraced report, not in the result line
}

func (r *result) fail(format string, args ...any) {
	r.correct = false
	fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
}

// options are the command-line settings every workload receives.
type options struct {
	seed     int64
	seconds  float64
	trace    bool
	spansDir string
	workload string
}

// e2eMetrics and layerMetrics fix the reported metric sets, their order
// and their units: name, unit pairs.
var e2eMetrics = [][2]string{
	{"goodput", "frac"}, {"throughput_qps", "1/s"},
	{"latency_p50_us", "us"}, {"allocs_per_op", "count"},
	{"heap_mb", "MB"}, {"setup_s", "s"},
}

var layerMetrics = [][2]string{
	{"e2e.latency_p99_us", "us"},
	{"server.decode_ns", "ns"}, {"server.encode_ns", "ns"}, {"server.accept_us", "us"},
	{"server.refuse_us", "us"}, {"server.statz_us", "us"}, {"server.metrics_us", "us"},
	{"server.refused_frac", "frac"}, {"server.routed_skew", "ratio"},
	{"admit.rejected_deadline", "count"}, {"admit.rejected_queue", "count"},
	{"admit.rejected_degraded", "count"}, {"admit.degrade_transitions", "count"},
	{"predictor.calls_per_op", "count"}, {"predictor.groups_per_call", "count"},
	{"predictor.self_us_per_op", "us"}, {"predictor.memo_hit_ratio", "frac"},
	{"sched.rounds_per_query", "count"}, {"sched.predict_rounds_per_query", "count"},
	{"sched.group_members", "count"}, {"sched.group_ops", "count"}, {"sched.drop_frac", "frac"},
	{"sched.wait_p50_ms", "ms"}, {"sched.wait_p99_ms", "ms"},
	{"executor.groups_per_query", "count"}, {"executor.peak_checkpoint_mb", "MB"},
	{"gpusim.kernels_per_query", "count"}, {"gpusim.sm_util", "frac"},
	{"sim.latency_p50_ms", "ms"}, {"sim.latency_p99_ms", "ms"}, {"sim.events_per_query", "count"}, {"sim.ns_per_event", "ns"}, {"sim.pool_events", "count"},
	{"trace.overhead_pct", "%"},
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: colocate, ingest or shed")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: 1 is the gating default, 1009 is held out for checking claims")
	flag.Float64Var(&o.seconds, "seconds", 10, "measurement time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&o.spansDir, "spans-dir", filepath.Join(".bench_build", "spans"), "where the traced run writes its spans")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, not %d", traceFlag))
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}

	var r *result
	var err error
	switch o.workload {
	case "colocate":
		r, err = runColocate(o)
	case "ingest":
		r, err = runGateway(o, false)
	case "shed":
		r, err = runGateway(o, true)
	default:
		err = fmt.Errorf("unknown -workload %q (want colocate, ingest or shed)", o.workload)
	}
	if err != nil {
		fatal(err)
	}
	report(r, o)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// report prints the human-readable metrics and then the result line.
func report(r *result, o options) {
	errFrac := float64(r.failed) / float64(r.attempted)
	fmt.Printf("workload %s seed %d trace %v: attempted %d failed %d error_frac %g\n",
		o.workload, o.seed, o.trace, r.attempted, r.failed, errFrac)
	list, specs := r.e2e, e2eMetrics
	if o.trace {
		list, specs = r.layer, layerMetrics
	} else {
		for _, m := range r.info {
			fmt.Printf("  %-32s %14.6g %-6s n=%d (not gated)\n", m.Name, m.Value, layerUnit(m.Name), m.N)
		}
	}
	byName := map[string]metric{}
	for _, m := range list {
		byName[m.Name] = m
	}
	out := map[string]map[string]any{}
	for _, spec := range specs {
		name, unit := spec[0], spec[1]
		m, ok := byName[name]
		if !ok {
			fatal(fmt.Errorf("workload %s did not report %s", o.workload, name))
		}
		fmt.Printf("  %-32s %14.6g %-6s n=%d\n", name, m.Value, unit, m.N)
		out[name] = map[string]any{"value": m.Value, "unit": unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.correct && r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// layerUnit returns the unit of a per-layer metric.
func layerUnit(name string) string {
	for _, spec := range layerMetrics {
		if spec[0] == name {
			return spec[1]
		}
	}
	return ""
}

// median returns the median of xs (0 for none). It sorts a copy.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q mid-quantile of xs (0 for none): the inverse of
// the mid-distribution function F(x) - P(X=x)/2, interpolated linearly
// between distinct values. Simulated latencies take a few discrete values
// when queries run alone; the ordinary sample quantile then sticks to one of
// them whatever the mix, while the mid-quantile moves with the mix's
// proportions. Values within a relative 1e-9 of each other count as one,
// so float round-off in virtual clocks does not split a value. On distinct
// values it matches the usual interpolated quantile.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	prevX, prevM := s[0], -1.0
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && s[j]-s[i] <= 1e-9*math.Abs(s[i]) {
			j++
		}
		m := (float64(i) + float64(j-i)/2) / n // mid-probability of s[i]
		if q <= m {
			if prevM < 0 {
				return s[i]
			}
			return prevX + (s[i]-prevX)*(q-prevM)/(m-prevM)
		}
		prevX, prevM = s[i], m
		i = j
	}
	return s[len(s)-1]
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
