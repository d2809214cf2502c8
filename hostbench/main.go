// Command hostbench is melody's benchmark: it measures the host cost of
// running the simulator and its run service, and checks that every
// output it measures is correct.
//
// Run it from the repository root, where it reads BENCHMARK.json,
// through run.sh, which builds it and the melody binary first:
//
//	bash hostbench/run.sh --workload sweep-fig8a --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it times the workload untraced and prints the
// end-to-end metrics; with --trace 1 it replays the same work with spans
// around every call into a layer and prints the per-layer metrics and
// the layer ladder. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, holding the metrics
// BENCHMARK.json names. README.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/moatlab/melody/internal/melody/spec"
)

// metricDef is a metric the benchmark reports under a fixed name.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// metricLists are the metrics BENCHMARK.json names: end_to_end for an
// untraced run (--trace 0), per_layer for a traced run (--trace 1).
type metricLists struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadMetrics reads the metric lists from the benchmark definition at
// path.
func loadMetrics(path string) (metricLists, error) {
	var m metricLists
	raw, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	if len(m.EndToEnd) == 0 || len(m.PerLayer) == 0 {
		return m, fmt.Errorf("%s: names no end_to_end or no per_layer metrics", path)
	}
	return m, nil
}

// report collects one run's measurements. Values holds the metrics the
// JSON line carries; Notes says how each was measured (sample count,
// percentile); Extra holds values printed for reading only.
type report struct {
	Workload string
	Seed     uint64
	Values   map[string]float64
	Notes    map[string]string
	Extra    []extraRow
}

type extraRow struct {
	Name, Unit string
	Value      float64
	Note       string
}

func newReport(workload string, seed uint64) *report {
	return &report{Workload: workload, Seed: seed, Values: map[string]float64{}, Notes: map[string]string{}}
}

func (r *report) set(name string, v float64, format string, args ...any) {
	r.Values[name] = v
	r.Notes[name] = fmt.Sprintf(format, args...)
}

func (r *report) extra(name, unit string, v float64, format string, args ...any) {
	r.Extra = append(r.Extra, extraRow{name, unit, v, fmt.Sprintf(format, args...)})
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// emit prints the human-readable table of defs (plus the extra rows)
// and then the JSON result line.
func emit(w io.Writer, r *report, defs []metricDef, t *tally) error {
	attempted, failed := t.counts()
	fmt.Fprintf(w, "\n%s  seed %d  attempted %d  failed %d  error_rate %.4f\n", r.Workload, r.Seed, attempted, failed, t.errorRate())
	for _, reason := range t.reasons {
		fmt.Fprintf(w, "  failure: %s\n", reason)
	}
	fmt.Fprintf(w, "| %-24s | %16s | %-6s | %s\n", "metric", "value", "unit", "how")
	res := jsonResult{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		if !validName(d.Name) {
			return fmt.Errorf("metric name %q breaks the name grammar", d.Name)
		}
		v, ok := r.Values[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
		}
		res.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "| %-24s | %16.6g | %-6s | %s\n", d.Name, v, d.Unit, r.Notes[d.Name])
	}
	for _, e := range r.Extra {
		fmt.Fprintf(w, "| %-24s | %16.6g | %-6s | %s\n", e.Name, e.Value, e.Unit, e.Note)
	}
	if attempted < 1 {
		return fmt.Errorf("%s: no operation was attempted", r.Workload)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// options are the command-line settings of one run.
type options struct {
	workload   string
	seed       uint64
	seconds    int
	trace      bool
	melody     string
	work       string
	cpuProfile string
	setupProbe bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 10, "seconds to measure for")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.melody, "melody", "", "melody binary the service-mix workload serves from")
	fs.StringVar(&o.work, "work", ".bench_build", "directory for traces and service data")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the timed passes of an untraced in-process run to this file")
	fs.BoolVar(&o.setupProbe, "setup-probe", false, "set the workload up in a fresh process and exit (used to time setup)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "hostbench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seed == 0 {
		// A RunSpec normalizes seed 0 to the default seed; so does the
		// benchmark, so that its replays derive the same cell seeds.
		o.seed = spec.DefaultSeed
	}
	o.trace = traceFlag == 1
	if o.setupProbe {
		if w.probe == nil {
			fmt.Fprintf(stderr, "hostbench: %s has no setup probe\n", o.workload)
			return 2
		}
		if err := w.probe(o); err != nil {
			fmt.Fprintln(stderr, "hostbench:", err)
			return 1
		}
		return 0
	}
	lists, err := loadMetrics("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 2
	}
	t := &tally{}
	r, err := w.run(o, t, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	defs := lists.EndToEnd
	if o.trace {
		defs = lists.PerLayer
		for _, d := range defs {
			if _, ok := r.Values[d.Name]; !ok {
				r.set(d.Name, 0, "layer not called by this workload")
			}
		}
	}
	if err := emit(stdout, r, defs, t); err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	return 0
}

// benchWorkload is one named workload: run measures it; probe, when
// set, performs its setup alone in a fresh process.
type benchWorkload struct {
	run   func(o options, t *tally, out io.Writer) (*report, error)
	probe func(o options) error
}

var workloads = map[string]benchWorkload{
	"sweep-fig8a": simBench(sweepFig8a),
	"ycsb-fig9b":  simBench(ycsbFig9b),
	"device-rw":   simBench(deviceRW),
	"service-mix": {run: runService},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
