// Command perfbench is the repository benchmark. It drives the mediated
// server (accountant.Sim) and the cluster control plane (flat
// coordinator and two-tier budget tree over the binary wire) through
// their public entry points, times those calls from outside, checks
// every interval's outputs, and prints one JSON result line.
//
//	perfbench --workload tree-1k --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run and writes
// the recorded spans under .bench_build/traces/. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed every generated input is drawn from")
		seconds = flag.Float64("seconds", 25, "measurement budget in host seconds")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	opts := runOptions{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), traced: *traced == 1}
	res, err := run(w, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	metrics := res.endToEnd
	if opts.traced {
		metrics = res.perLayer
		if err := writeSpans(*name, *seed, res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("workload %s seed %d: %d rounds of %d steps, %d attempted, %d failed, deterministic=%v\n",
		*name, *seed, res.rounds, w.episode, res.attempted, res.failed, res.deterministic)
	for _, msg := range res.failures {
		fmt.Println("  invalid:", msg)
	}
	for _, m := range metrics {
		fmt.Printf("  %-34s %14.6g %s\n", m.name, m.value, m.unit)
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]metricJSONItem `json:"metrics"`
	}{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricJSONItem{}}
	for _, m := range metrics {
		out.Metrics[m.name] = metricJSONItem{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

type metricJSONItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
