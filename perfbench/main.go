// Command perfbench is the repository's end-to-end benchmark. It times
// a whole vliterag-style invocation from outside — corpus index build,
// planning, serving and summarizing — on one of four workloads, checks
// the outputs, and prints every metric by name with its unit. The last
// line of its output is one JSON object with the result.
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
//
// With --trace 1 the run records spans around every call it makes into
// a layer, prints per-layer metrics and a self-time table, and writes
// the spans as Chrome trace-event JSON. See README.md in this directory
// for the workloads and the metric-to-layer map.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "seed of every random stream the workload generates")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	out := fs.String("out", ".bench_build", "directory the trace file is written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out, sc: fullScale()}
	res, err := execute(def, cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}
