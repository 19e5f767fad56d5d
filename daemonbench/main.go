// Command daemonbench is the repository's benchmark: it drives a real
// homunculusd child process over loopback with seeded workloads, checks
// every output, and prints end-to-end metrics (untraced runs) or
// per-layer metrics (traced runs). See README.md and ../BENCHMARK.json.
//
//	bash daemonbench/run.sh --workload classify-single --seed 1 --seconds 10 --trace 0
//	bash daemonbench/run.sh --workload all --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}.
// The exit code is nonzero when any output check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"repro/internal/httpapi"
)

var workloads = []string{"classify-single", "classify-batch", "compile-cold", "compile-warm"}

func main() {
	workload := flag.String("workload", "all", "workload name, or all: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "workload seed; the same seed generates identical specs and vectors")
	seconds := flag.Float64("seconds", 10, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1 records spans and prints per-layer metrics instead of end-to-end ones")
	daemonBin := flag.String("daemon", ".bench_build/bin/homunculusd", "homunculusd binary under test")
	workDir := flag.String("work", ".bench_build/work", "scratch directory for state dirs, logs and spans")
	flag.Parse()

	// A signal ends the benchmark without a result, after its daemons.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sigs
		fmt.Fprintf(os.Stderr, "daemonbench: %v\n", s)
		exit(1)
	}()

	httpapi.RegisterBuiltinLoaders()
	// The load generator runs on one P: its clients mostly wait on the
	// network, and a second P would only contend with the daemon for the
	// machine's cores.
	runtime.GOMAXPROCS(1)
	names := workloads
	if *workload != "all" {
		if !contains(workloads, *workload) {
			fmt.Fprintf(os.Stderr, "daemonbench: unknown workload %q (have %s)\n", *workload, strings.Join(workloads, ", "))
			exit(2)
		}
		names = []string{*workload}
	}
	if _, err := os.Stat(*daemonBin); err != nil {
		fmt.Fprintf(os.Stderr, "daemonbench: daemon binary: %v\n", err)
		exit(2)
	}

	type result struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		dir, err := filepath.Abs(filepath.Join(*workDir, fmt.Sprintf("%s-%d", name, os.Getpid())))
		if err == nil {
			err = os.MkdirAll(dir, 0o755)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "daemonbench: %v\n", err)
			exit(2)
		}
		r := newRun(name, *seed, *seconds, *trace == 1, *daemonBin, dir)
		r.execute()
		if r.trace {
			if err := r.tr.write(filepath.Join(*workDir, "spans-"+name+".jsonl")); err != nil {
				r.fail("write spans: %v", err)
			}
		}
		r.print(os.Stdout)
		if r.failed == 0 {
			_ = os.RemoveAll(dir)
		}
		total.Attempted += r.attempted
		total.Failed += r.failed
		total.Correct = total.Correct && r.failed == 0
		keys := make([]string, 0, len(r.metrics))
		for k := range r.metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			m := r.metrics[k]
			if !r.emits(k) {
				continue
			}
			if len(names) > 1 {
				k = name + "/" + k
			}
			total.Metrics[k] = metric{Value: m.Value, Unit: m.Unit}
		}
	}
	if total.Attempted == 0 {
		total.Attempted = 1
		total.Failed++
		total.Correct = false
	}
	raw, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "daemonbench: %v\n", err)
		exit(2)
	}
	killAll()
	fmt.Println(string(raw))
	if !total.Correct {
		exit(1)
	}
}

// exit ends the benchmark after killing and reaping its daemons.
func exit(code int) {
	killAll()
	os.Exit(code)
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
