// Command perfbench is the repository's benchmark: three workloads that
// exercise the paper's pipeline end to end, with output checks that fail a
// wrong run.
//
//	perfbench --workload serve-read --seed 7 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the traced layer suite instead and prints the per-layer metrics. The last
// line of standard output is the result object; the lines before it are a
// human-readable report and an "env" line. See README.md for what each
// metric means on each workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Open-loop read rates, about 20% and 60% of the closed-loop rate with
// nproc connections on the metro world (2-CPU runner).
const (
	lowRate  = 2000.0
	highRate = 6000.0
)

// endToEnd lists every end-to-end metric with its unit; each workload
// reports all of them.
var endToEnd = map[string]string{
	"setup_s":     "s",
	"job_cpu_s":   "s",
	"peak_rss_mb": "MB",
}

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	binDir   string
	workDir  string
	conns    int
}

// outcome is what a workload or the layer suite measured.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string // failed output checks
	info      map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, info: map[string]any{}}
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*config) (*outcome, error){
	"paper-tables": paperTables,
	"attack-wire":  attackWire,
	"serve-read":   serveRead,
}

func main() {
	var cfg config
	var seed int64
	var secs, trace int
	flag.StringVar(&cfg.workload, "workload", "", "paper-tables, attack-wire or serve-read")
	flag.Int64Var(&seed, "seed", 1, "workload seed")
	flag.IntVar(&secs, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: run the traced layer suite and print per-layer metrics")
	flag.StringVar(&cfg.binDir, "bin", ".bench_build/bin", "directory holding the built osnd and experiments")
	flag.StringVar(&cfg.workDir, "work", ".bench_build", "directory for generated worlds")
	calib := flag.Bool("calibrate", false, "run as the speed meter's child (see speedMeter)")
	flag.Parse()
	if *calib {
		calibrate()
		return
	}
	cfg.seed = uint64(seed)
	cfg.seconds = time.Duration(secs) * time.Second
	cfg.conns = runtime.NumCPU()
	run, ok := workloads[cfg.workload]
	if !ok || secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad flags (workload %q, seconds %d, trace %d)\n", cfg.workload, secs, trace)
		os.Exit(2)
	}

	// Children never outlive the benchmark, whichever way it ends.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()

	// The whole benchmark and every child it starts run on one CPU (see
	// pinToOneCPU); cfg.conns still counts the CPUs the machine offers.
	runtime.GOMAXPROCS(1)
	cpu, err := pinToOneCPU()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}

	busy0, steal0 := hostTicks()
	var o *outcome
	want := endToEnd
	if trace == 1 {
		o, err = layerSuite(&cfg)
		want = perLayer
	} else if meter, err = startSpeedMeter(); err == nil {
		start := time.Now()
		if o, err = run(&cfg); err == nil {
			o.info["cpu_slowdown"] = meter.slowdown(start, time.Now())
		}
	}
	killAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	for name := range want {
		if _, ok := o.metrics[name]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s not measured\n", cfg.workload, name)
			os.Exit(1)
		}
	}
	// The share of the machine's busy CPU time the hypervisor gave to other
	// tenants during the run: wall-clock figures in the report are
	// contended by them in that proportion; CPU times are not.
	busy1, steal1 := hostTicks()
	if d := (busy1 - busy0) + (steal1 - steal0); d > 0 {
		o.info["host_steal_share"] = float64(steal1-steal0) / float64(d)
	}
	printReport(&cfg, trace, cpu, o)

	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(o.problems) == 0, max(o.attempted, 1), o.failed, map[string]metric{}}
	for name, unit := range want {
		v := o.metrics[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // nothing was measured: only a failed run gets here
			res.Correct = false
		}
		res.Metrics[name] = metric{v, unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printReport writes the human-readable lines: every metric, the failed
// checks, and the environment block.
func printReport(cfg *config, trace, cpu int, o *outcome) {
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		unit := endToEnd[n]
		if trace == 1 {
			unit = perLayer[n]
		}
		fmt.Printf("%-44s %14.4f %s\n", n, o.metrics[n], unit)
	}
	for _, p := range o.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	env := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"traced":     trace == 1,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"pinned_cpu": cpu,
		"go_version": runtime.Version(),
		"conns":      cfg.conns,
		"rates_rps":  map[string]float64{"low": lowRate, "high": highRate},
		"attempted":  o.attempted,
		"failed":     o.failed,
	}
	for k, v := range o.info {
		env[k] = v
	}
	b, err := json.Marshal(env)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("env %s\n", b)
}

// joinProblems limits a list of check failures for one report line.
func joinProblems(ps []string) string {
	if len(ps) > 5 {
		ps = append(ps[:5:5], fmt.Sprintf("... %d more", len(ps)-5))
	}
	return strings.Join(ps, "; ")
}
