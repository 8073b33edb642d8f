// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run table4,fig1
//	experiments -all
//	experiments -all -parallel 4 -workers 8
//
// -workers sets the per-run crawl width (how many fetches the attack
// pipeline runs at once; results are identical at any width), -parallel runs that
// many experiments concurrently over the shared lab. Output order always
// matches selection order.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"hsprofiler/internal/experiments"
)

// outcome is one experiment's buffered result.
type outcome struct {
	out     string
	err     error
	elapsed time.Duration
}

func main() {
	list := flag.Bool("list", false, "list available experiments")
	run := flag.String("run", "", "comma-separated experiment IDs to run")
	all := flag.Bool("all", false, "run every experiment")
	outDir := flag.String("o", "", "also write each experiment's output to <dir>/<id>.txt")
	parallel := flag.Int("parallel", 1, "run up to N experiments concurrently (outputs stay in selection order)")
	workers := flag.Int("workers", 1, "crawl width per attack run: concurrent fetches (results are identical at any width)")
	flag.Parse()

	registry := experiments.All()
	if *list {
		for _, e := range registry {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []experiments.Experiment
	switch {
	case *all:
		selected = registry
	case *run != "":
		for _, id := range strings.Split(*run, ",") {
			e, ok := experiments.Lookup(strings.TrimSpace(id))
			if !ok {
				valid := make([]string, len(registry))
				for i, r := range registry {
					valid[i] = r.ID
				}
				fmt.Fprintf(os.Stderr, "experiments: unknown id %q; valid ids: %s\n", id, strings.Join(valid, ", "))
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
	lab := experiments.NewLab()
	defer lab.Close()
	lab.SetWorkers(*workers)

	// Run with bounded concurrency, buffering each experiment's output so
	// the printed report reads the same regardless of completion order.
	width := *parallel
	if width < 1 {
		width = 1
	}
	if width > len(selected) {
		width = len(selected)
	}
	results := make([]outcome, len(selected))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				start := time.Now()
				out, err := selected[i].Run(lab)
				results[i] = outcome{out: out, err: err, elapsed: time.Since(start)}
			}
		}()
	}
	for i := range selected {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	failed := false
	for i, e := range selected {
		r := results[i]
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.ID, r.err)
			failed = true
			continue
		}
		fmt.Printf("### %s — %s  (%s)\n\n%s\n", e.ID, e.Title, r.elapsed.Round(time.Millisecond), r.out)
		if *outDir != "" {
			path := filepath.Join(*outDir, e.ID+".txt")
			if err := os.WriteFile(path, []byte(r.out), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: writing %s: %v\n", path, err)
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}
