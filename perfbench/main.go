// Command perfbench is the repository's serving benchmark. It starts
// server.Start on loopback in its own process, drives it over
// internal/wire from two connections, checks the replies and the store,
// and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate, otherwise identical run wraps the store in a timing
// decorator and reports the per-layer breakdown. README.md lists every
// metric and what it should move.
//
// Usage, from the repository root (run.sh builds this package first):
//
//	perfbench -workload read-mostly -seed 1 -seconds 20 -trace 0
//	perfbench compare <base-dir> <head-dir>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// minSeconds keeps every closed-loop round of a traced run at least one
// throughput window long.
const minSeconds = 10

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload name (read-mostly, churn-batched, durable-write)")
		seed    = flag.Uint64("seed", 1, "seed for every generated input")
		seconds = flag.Int("seconds", 20, "measured seconds, shared by the phases")
		traced  = flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end run")
		scratch = flag.String("scratch", ".bench_build", "directory for persist files")
	)
	flag.Parse()
	if flag.Arg(0) == "compare" {
		return compareMain(flag.Args()[1:])
	}
	w, ok := lookup(*name)
	if !ok || *seconds < minSeconds || (*traced != 0 && *traced != 1) {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(os.Stderr, "usage: perfbench -workload %v -seed N -seconds S (S >= %d) -trace 0|1\n", names, minSeconds)
		return 2
	}
	res, err := runWorkload(w, *seed, *seconds, *traced == 1, *scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, l := range res.info {
		fmt.Println(l)
	}
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.metrics[n]
		fmt.Printf("%-34s %14.4f %-6s %s\n", n, m.Value, m.Unit, res.notes[n])
	}
	for _, f := range res.violations {
		fmt.Fprintln(os.Stderr, "check failed:", f)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.violations) == 0, res.attempted, res.failed, res.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if len(res.violations) > 0 {
		return 1
	}
	return 0
}
