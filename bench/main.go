// Command bench is the repository's one benchmark: five closed-loop
// workloads against what ships (the clobber engine with every option at its
// default, in-process and behind the real cmd/memcachedsim binary), measured
// end to end with no instrumentation installed, plus a separate traced pass
// that splits one op's time and fences over the layers it crosses. See
// README.md.
//
//	bash bench/run.sh --workload load_hashmap --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh            # every workload, untraced then traced
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
)

func info(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

func main() {
	var cfg config
	workload := flag.String("workload", "all", "workload to run, or all")
	trace := flag.Int("trace", -1, "0: end-to-end metrics, no decorator installed; 1: per-layer metrics from the traced pass; -1: both")
	quick := flag.Bool("quick", false, "1/100 scale smoke run")
	flag.Int64Var(&cfg.seed, "seed", 1, "seeds every generator: keys, op mix, crash point")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window")
	flag.StringVar(&cfg.serverBin, "server-bin", ".bench_build/bin/memcachedsim", "built cmd/memcachedsim binary (bench/run.sh builds it)")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/spans", "directory the traced pass writes its spans to, as JSONL")
	flag.Parse()
	cfg.scale = 1
	if *quick {
		cfg.scale = 100
	}

	var todo []spec
	if *workload == "all" {
		todo = specs
	} else {
		sp, err := findSpec(*workload)
		if err != nil {
			info("%v", err)
			os.Exit(2)
		}
		todo = []spec{sp}
	}
	ok := true
	for _, sp := range todo {
		for _, traced := range []bool{false, true} {
			if *trace >= 0 && traced != (*trace == 1) {
				continue
			}
			run := runUntraced
			if traced {
				run = runTraced
			}
			res, err := run(sp, cfg)
			if err != nil {
				info("%s: %v", sp.name, err)
				os.Exit(1)
			}
			report(sp.name, traced, cfg, res)
			ok = ok && res.Correct
		}
	}
	if !ok {
		info("outputs were not correct")
	}
}

// report prints every metric by name and unit, then the result as one JSON
// object on the last line.
func report(name string, traced bool, cfg config, res result) {
	fmt.Printf("# workload=%s trace=%v seed=%d seconds=%g attempted=%d failed=%d\n",
		name, traced, cfg.seed, cfg.seconds, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-34s %16.4f %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		info("%v", err)
		os.Exit(1)
	}
	fmt.Println(strings.TrimSpace(string(line)))
}
