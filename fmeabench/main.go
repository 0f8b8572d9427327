// Command fmeabench is the repository benchmark. Each workload runs a
// shipped front-end at its default settings in a closed loop —
// cmd/certify, cmd/injector or cmd/served — checks every output byte
// against a recorded or recomputed reference, and prints the
// end-to-end metrics. With -trace 1 it instead times each layer from
// outside, calling the layers' public functions in the order the
// front-ends call them, and prints the per-layer metrics. The CLI
// workloads' times are scaled by a host reference job timed around each
// invocation (hostref.go), so that the shared host's drifting speed
// does not swamp the program's.
//
// Run it from the repository root through run.sh, which builds the
// front-ends and this command from source first:
//
//	bash fmeabench/run.sh --workload certify-v2 --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it carries
// the run's details (host CPU count, Go version, sample counts, tail
// percentiles). A correctness failure still prints both lines and
// exits 1; a run that cannot be carried out exits 1 without them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a timed run (-trace 0), reported for
// every workload.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"exp_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"setup_s", "s"},
	{"ok_frac", "frac"},
}

// workloads maps each workload name to its timed run.
var workloads = map[string]func(*env) (*outcome, error){
	"certify-v2":  func(e *env) (*outcome, error) { return runCLI(e, certifyV2) },
	"campaign-v2": func(e *env) (*outcome, error) { return runCLI(e, campaignV2) },
	"served-fmea": runServedFMEA,
}

// env is what every run needs: where the built front-ends are, where
// scratch files go, and the run's seed and length.
type env struct {
	bin, tmp string
	seed     uint64
	seconds  time.Duration
	log      *log.Logger
}

func (e *env) binary(name string) string { return filepath.Join(e.bin, name) }

// outcome is one run's result before printing.
type outcome struct {
	attempted, failed int
	correct           bool
	metrics           map[string]float64
	detail            map[string]any
}

// fail records a failed operation and logs why.
func (o *outcome) fail(e *env, format string, args ...any) {
	o.failed++
	o.correct = false
	e.log.Printf(format, args...)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	lg := log.New(stderr, "fmeabench: ", 0)
	fs := flag.NewFlagSet("fmeabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "", "comma-separated workloads (certify-v2, campaign-v2, served-fmea) or all")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "seconds each timed run measures")
	trace := fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	bin := fs.String("bin", "", "directory holding the built certify, injector and served binaries")
	tmp := fs.String("tmp", "", "scratch directory for front-end outputs and the span journal")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	list, err := parseWorkloads(*names)
	switch {
	case err != nil:
		lg.Print(err)
		return 2
	case *bin == "" || *tmp == "":
		lg.Print("-bin and -tmp are required (run.sh sets them)")
		return 2
	case *seconds < 1:
		lg.Printf("-seconds must be >= 1, got %d", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		lg.Printf("-trace must be 0 or 1, got %d", *trace)
		return 2
	}
	e := &env{bin: *bin, tmp: *tmp, seed: *seed, seconds: time.Duration(*seconds) * time.Second, log: lg}

	var outs []*outcome
	if *trace == 1 {
		// The traced run covers the operations of all three workloads,
		// so it runs once whatever the selection.
		o, err := traceAll(e)
		if err != nil {
			lg.Print(err)
			return 1
		}
		outs = append(outs, o)
		list = []string{"trace"}
	} else {
		for _, name := range list {
			o, err := workloads[name](e)
			if err != nil {
				lg.Printf("%s: %v", name, err)
				return 1
			}
			if err := checkMetricSet(o.metrics, endToEnd); err != nil {
				lg.Printf("%s: %v", name, err)
				return 1
			}
			outs = append(outs, o)
		}
	}
	return report(stdout, list, *seed, *seconds, *trace, outs)
}

// parseWorkloads resolves the -workload flag.
func parseWorkloads(s string) ([]string, error) {
	if s == "all" {
		return []string{"certify-v2", "campaign-v2", "served-fmea"}, nil
	}
	var out []string
	for _, name := range strings.Split(s, ",") {
		if _, ok := workloads[name]; !ok {
			return nil, fmt.Errorf("unknown workload %q (want certify-v2, campaign-v2, served-fmea or all)", name)
		}
		out = append(out, name)
	}
	return out, nil
}

// checkMetricSet fails when a run's metrics differ from the declared
// set, so the printed names cannot drift from BENCHMARK.json.
func checkMetricSet(got map[string]float64, want []metricDef) error {
	if len(got) != len(want) {
		return fmt.Errorf("internal: %d metrics measured, %d declared", len(got), len(want))
	}
	for _, d := range want {
		if _, ok := got[d.name]; !ok {
			return fmt.Errorf("internal: metric %s declared but not measured", d.name)
		}
	}
	return nil
}

// report prints the detail line and the result line and returns the
// exit code. One workload's metrics are keyed by metric name; several
// workloads' by "workload:metric".
func report(w io.Writer, names []string, seed uint64, seconds, trace int, outs []*outcome) int {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	details := map[string]any{}
	for i, o := range outs {
		res.Correct = res.Correct && o.correct
		res.Attempted += o.attempted
		res.Failed += o.failed
		for _, d := range defs {
			key := d.name
			if len(outs) > 1 {
				key = names[i] + ":" + d.name
			}
			res.Metrics[key] = metric{o.metrics[d.name], d.unit}
		}
		o.detail["failed_frac"] = float64(o.failed) / float64(max(o.attempted, 1))
		details[names[i]] = o.detail
	}
	head := map[string]any{
		"fmeabench": map[string]any{
			"workloads": names, "seed": seed, "seconds": seconds, "trace": trace,
			"host": map[string]any{
				"num_cpu": runtime.NumCPU(), "go": runtime.Version(),
				"goos": runtime.GOOS, "goarch": runtime.GOARCH,
			},
			"runs": details,
		},
	}
	// Encode both lines before printing either, so a failed encoding
	// leaves no partial result behind.
	var lines []byte
	for _, v := range []any{head, res} {
		b, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fmeabench: encode: %v\n", err)
			return 1
		}
		lines = append(append(lines, b...), '\n')
	}
	if _, err := w.Write(lines); err != nil {
		fmt.Fprintf(os.Stderr, "fmeabench: write: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}
