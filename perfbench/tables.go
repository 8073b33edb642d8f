package main

import (
	_ "embed"
	"fmt"
	"path/filepath"
	"regexp"
	"time"
)

// goldenTables is Tables 2-4 as the experiments command printed them when
// this benchmark was defined, with the per-experiment wall times removed.
//
//go:embed golden/tables.txt
var goldenTables string

var elapsedSuffix = regexp.MustCompile(`(?m)^(### .*)  \([^)]*\)$`)

// normalizeTables drops the wall-time suffix of each "###" header line.
func normalizeTables(out []byte) string {
	return elapsedSuffix.ReplaceAllString(string(out), "$1")
}

// hs1Args serves the paper's HS1 world, generated in-process by osnd's
// legacy generator with the scenario's search cap.
var hs1Args = []string{"-scenario", "hs1", "-search-cap", "250"}

// minTableJobs is the fewest experiments children a paper-tables run makes.
const minTableJobs = 2

// paperTables runs the paper's pipeline (cmd/experiments, Tables 2-4) as a
// child process until the run's seconds are spent (at least minTableJobs
// times), each output checked byte for byte against the golden text.
// job_cpu_s is the median child's CPU time. Its set-up figure comes from
// bringing up the paper's HS1 world in osnd three times.
func paperTables(cfg *config) (*outcome, error) {
	o := newOutcome()
	start := time.Now()
	setups, err := setupSamples(cfg, hs1Args, 3)
	if err != nil {
		return nil, err
	}
	o.addSetups(setups)
	var walls, cpus, raws, rss []float64
	for len(walls) < minTableJobs || time.Since(start) < cfg.seconds {
		out, run, err := runChild(filepath.Join(cfg.binDir, "experiments"), "-run", "table2,table3,table4")
		if err != nil {
			return nil, err
		}
		o.attempted++
		if got := normalizeTables(out); got != goldenTables {
			o.failed++
			o.check(false, "Tables 2-4 differ from the golden text:\n%s", got)
		}
		walls = append(walls, run.wall.Seconds())
		cpus = append(cpus, run.cpu.Seconds())
		raws = append(raws, run.rawCPU.Seconds())
		rss = append(rss, run.rssMB)
	}
	o.metrics["job_cpu_s"] = median(cpus)
	o.metrics["peak_rss_mb"] = median(rss)
	o.info["tables_s"] = walls
	o.info["tables_cpu_s"] = cpus
	o.info["tables_cpu_raw_s"] = raws
	o.info["rss_mb"] = rss
	return o, nil
}

// setup is one osnd start: wall time and CPU time from spawn to ready,
// the CPU time at the reference speed (see speedMeter) and as measured.
type setup struct{ wall, cpu, raw time.Duration }

// setupSamples starts a fresh osnd n times and stops each once it is
// ready.
func setupSamples(cfg *config, args []string, n int) ([]setup, error) {
	var out []setup
	for k := 0; k < n; k++ {
		srv, err := startOsnd(cfg.binDir, args...)
		if err != nil {
			return nil, err
		}
		srv.Stop()
		out = append(out, srv.setupSample())
	}
	return out, nil
}

// addSetups records setup_s, the median set-up CPU time, and lists both
// times of every start in the report.
func (o *outcome) addSetups(ss []setup) {
	var walls, cpus, raws []float64
	for _, s := range ss {
		walls = append(walls, s.wall.Seconds())
		cpus = append(cpus, s.cpu.Seconds())
		raws = append(raws, s.raw.Seconds())
	}
	o.metrics["setup_s"] = median(cpus)
	o.info["setup_wall_s"] = walls
	o.info["setup_cpu_s"] = cpus
	o.info["setup_cpu_raw_s"] = raws
}

// warm runs a short closed loop, checked but not timed, so connections,
// pools and caches are live before a timed pass.
func warm(pool *urlPool, cfg *config) error {
	r, err := runLoad(pool, loadSpec{Conns: cfg.conns, Seed: ^cfg.seed, Duration: 200 * time.Millisecond})
	if err == nil && (r.Failed > 0 || len(r.Problems) > 0) {
		err = fmt.Errorf("warm-up: %d of %d requests failed: %s", r.Failed, r.Attempted, joinProblems(r.Problems))
	}
	return err
}

// readReport is a load pass as the report shows it: latency quantiles
// (open-loop ones from each arrival's due time) with the sample count,
// and for an open loop how late the generator sent.
func readReport(r *loadResult) map[string]any {
	m := map[string]any{
		"samples": len(r.Lat), "failed": r.Failed, "dropped": r.Dropped,
		"p50_ms": median(r.Lat), "p90_ms": quantile(r.Lat, 0.9), "p99_ms": quantile(r.Lat, 0.99),
	}
	if len(r.Late) > 0 {
		m["lateness_p50_ms"] = median(r.Late)
		m["lateness_p99_ms"] = quantile(r.Late, 0.99)
	}
	return m
}

// foldLoad adds a pass's counts and check failures to the outcome.
func (o *outcome) foldLoad(r *loadResult) {
	o.attempted += r.Attempted
	o.failed += r.Failed
	o.problems = append(o.problems, r.Problems...)
}
