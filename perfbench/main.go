// Command perfbench is the repository's benchmark: open-loop load
// against the real daemons (basicskv, basicsjobd) over loopback TCP,
// plus the verification and simulation engines run in process.
//
// Run it from the repository root through run.sh, which builds the
// daemons and this program:
//
//	bash perfbench/run.sh --workload kv-write --seed 1 --seconds 35 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 35
//
// BENCHMARK.json gates kv-write, jobq and explore. kv-read (the 95/5
// get/put mix) runs here and in "all" but is not gated: its get p99 is
// head-of-line blocking behind puts plus the host's scheduling stalls,
// and on a shared 2-vCPU machine it moved far more between runs than
// any bound the benchmark can set.
//
// Every line but the last is a human-readable report: the environment,
// each metric by name with its unit, the checks run. The last line is
// one JSON object {"correct", "attempted", "failed", "metrics"}: with
// --trace 0 the end-to-end metrics, with --trace 1 the per-layer ones
// from a run with spans recorded around every call into a layer. The
// exit status is non-zero when any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string // directory holding the basicskv and basicsjobd binaries
	work     string // scratch directory for configs, journals and logs
	spans    string // directory the traced run writes its spans to
	spec     benchSpec
}

// window is the measured time the run is given.
func (o options) window() time.Duration { return time.Duration(o.seconds) * time.Second }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload run's outcome.
type report struct {
	Attempted int
	Failed    int
	Metrics   map[string]metric
	Failures  []string // output checks that did not hold
}

func newReport() *report { return &report{Metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// check records an output check; a false ok fails the run.
func (r *report) check(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	status := "ok  "
	if !ok {
		status = "FAIL"
		r.Failures = append(r.Failures, msg)
	}
	fmt.Printf("check %s %s\n", status, msg)
}

// count adds a batch of operations to the attempted/failed tallies.
func (r *report) count(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

// benchSpec is the part of BENCHMARK.json the program needs: the
// metrics it must report, with their units.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (benchSpec, error) {
	var sp benchSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return sp, fmt.Errorf("%s: no end_to_end or per_layer metrics", path)
	}
	return sp, nil
}

var workloads = map[string]func(options) (*report, error){
	"kv-write": func(o options) (*report, error) { return runKV(o, false) },
	"kv-read":  func(o options) (*report, error) { return runKV(o, true) },
	"jobq":     runJobq,
	"explore":  runExplore,
}

var workloadOrder = []string{"kv-write", "kv-read", "jobq", "explore"}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "kv-write, kv-read, jobq, explore, or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&o.bin, "bin", "", "directory with the basicskv and basicsjobd binaries")
	flag.StringVar(&o.work, "work", "", "scratch directory for configs, journals and logs")
	flag.StringVar(&o.spans, "spans", "", "directory for the traced run's spans (<workload>.jsonl)")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition listing the metrics to report")
	flag.Parse()
	o.trace = trace == 1
	if o.bin == "" || o.work == "" || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -bin, -work and a positive -seconds are required; use run.sh")
		os.Exit(2)
	}
	var err error
	if o.spec, err = loadSpec(*specPath); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("env cpus=%d gomaxprocs=%d go=%s seed=%d seconds=%d trace=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), o.seed, o.seconds, o.trace)
	if o.workload == "all" {
		os.Exit(runAll(o))
	}
	run, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	rep, err := runOne(o, run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	printReport(o, rep)
	line, _ := json.Marshal(map[string]any{
		"correct": len(rep.Failures) == 0, "attempted": rep.Attempted, "failed": rep.Failed, "metrics": rep.Metrics,
	})
	fmt.Println(string(line))
	if len(rep.Failures) > 0 {
		os.Exit(1)
	}
}

// runOne runs one workload in a fresh scratch directory and reports
// exactly the metric set BENCHMARK.json declares for the trace mode: a
// workload reports every end-to-end metric, and a per-layer metric of
// a layer the workload does not exercise reads 0.
func runOne(o options, run func(options) (*report, error)) (*report, error) {
	dir, err := os.MkdirTemp(o.work, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.work = dir
	rep, err := run(o)
	if err != nil {
		return nil, err
	}
	want := o.spec.EndToEnd
	if o.trace {
		want = o.spec.PerLayer
		rep.set("loadgen.ops_attempted", "count", float64(rep.Attempted))
		rep.set("loadgen.ops_failed", "count", float64(rep.Failed))
	}
	known := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), o.spec.EndToEnd...), o.spec.PerLayer...) {
		known[m.Name] = true
	}
	for name := range rep.Metrics {
		if !known[name] {
			return nil, fmt.Errorf("metric %q is not declared in BENCHMARK.json", name)
		}
	}
	keep := map[string]metric{}
	for _, m := range want {
		keep[m.Name] = metric{Value: rep.Metrics[m.Name].Value, Unit: m.Unit}
	}
	rep.Metrics = keep
	return rep, nil
}

func printReport(o options, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("metric %-10s %-32s %14.4f %s\n", o.workload, n, m.Value, m.Unit)
	}
	fmt.Printf("ops %s attempted=%d failed=%d\n", o.workload, rep.Attempted, rep.Failed)
}

// runAll runs every workload untraced, then traced, prints both metric
// sets and the tracing overhead on each workload's latency, and
// returns the exit status.
func runAll(o options) int {
	status := 0
	var summary []string
	for _, w := range workloadOrder {
		var plain *report
		for _, traced := range []bool{false, true} {
			ow := o
			ow.workload, ow.trace = w, traced
			rep, err := runOne(ow, workloads[w])
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
				status = 1
				break
			}
			printReport(ow, rep)
			if len(rep.Failures) > 0 {
				status = 1
			}
			if !traced {
				plain = rep
				continue
			}
			summary = append(summary, fmt.Sprintf("overhead %-8s p50 %+.3f ms, tail %+.3f ms (traced %.3f/%.3f, untraced %.3f/%.3f)", w,
				rep.Metrics["trace.p50_ms"].Value-plain.Metrics["p50_ms"].Value,
				rep.Metrics["trace.tail_ms"].Value-plain.Metrics["tail_ms"].Value,
				rep.Metrics["trace.p50_ms"].Value, rep.Metrics["trace.tail_ms"].Value,
				plain.Metrics["p50_ms"].Value, plain.Metrics["tail_ms"].Value))
		}
	}
	fmt.Println(strings.Join(summary, "\n"))
	return status
}

// scratch returns a fresh subdirectory of the run's scratch directory.
func scratch(o options, name string) (string, error) {
	dir := filepath.Join(o.work, name)
	return dir, os.MkdirAll(dir, 0o755)
}
