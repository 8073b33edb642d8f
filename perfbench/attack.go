package main

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"time"

	"hsprofiler/internal/core"
	"hsprofiler/internal/crawler"
	"hsprofiler/internal/crawler/cache"
	"hsprofiler/internal/extend"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/osnhttp"
	"hsprofiler/internal/worldgen"
)

// The HS2 attack as the paper ran it: 4 accounts, enhanced methodology
// with filtering, threshold 2000, search capped at 520 results per account.
const (
	attackAccounts  = 4
	attackThreshold = 2000
	hs2SearchCap    = 520
)

// attackResult is everything the three attack paths must agree on.
type attackResult struct {
	H               []core.Inferred
	Effort          crawler.Effort
	Retries         crawler.Effort
	Failures        crawler.Effort
	DossierEffort   crawler.Effort
	DossierFailures crawler.Effort
	DossierProfiles int
	PublicLists     int
	RecoveredLists  int
}

func (r *attackResult) requests() int { return r.Effort.Total() + r.DossierEffort.Total() }
func (r *attackResult) failures() int { return r.Failures.Total() + r.DossierFailures.Total() }

// crawlHooks lets the traced run time the attack's stages; nil fields are
// skipped.
type crawlHooks struct {
	ctx      context.Context // carries an obs trace for core's step spans
	core     func(time.Duration)
	dossier  func(time.Duration)
	cacheHit func(cache.Stats)
}

// crawl is hsprofile's enhanced run plus the §6 dossier crawl at fetch
// width `width`: core.RunContext over a session on a fetch cache, then
// extend.BuildParallel over a fetcher sharing that cache.
func crawl(cl crawler.Client, school string, width int, hooks crawlHooks) (*attackResult, error) {
	ctx := hooks.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	cc := cache.New(cl)
	sess := crawler.NewSession(cc)
	t0 := time.Now()
	res, err := core.RunContext(ctx, sess, core.Params{
		SchoolName:    school,
		CurrentYear:   worldgen.HS2Config().SeniorClassYear,
		Mode:          core.Enhanced,
		MaxThreshold:  attackThreshold,
		FetchProfiles: true,
		Workers:       width,
	})
	if err != nil {
		return nil, fmt.Errorf("attack: %w", err)
	}
	if hooks.core != nil {
		hooks.core(time.Since(t0))
	}
	sel := res.Select(attackThreshold, true)
	f := crawler.NewFetcher(cc, width)
	t0 = time.Now()
	d, err := extend.BuildParallel(ctx, f, sel)
	if err != nil {
		return nil, fmt.Errorf("dossiers: %w", err)
	}
	if hooks.dossier != nil {
		hooks.dossier(time.Since(t0))
	}
	if hooks.cacheHit != nil {
		hooks.cacheHit(cc.Stats())
	}
	return &attackResult{
		H: sel, Effort: res.Effort, Retries: res.Retries.Add(f.Retries()), Failures: res.Failures,
		DossierEffort: f.Effort(), DossierFailures: f.Failures(),
		DossierProfiles: len(d.Profiles), PublicLists: len(d.PublicFriends), RecoveredLists: len(d.RecoveredFriends),
	}, nil
}

// directReference runs the same attack in-process over crawler.Direct on
// the same snapshot and osn.Config: the answer both wires must reproduce.
func directReference(snap string, width int) (*attackResult, string, error) {
	w, err := worldgen.ReadSnapshotFile(snap)
	if err != nil {
		return nil, "", err
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{SearchPerAccount: hs2SearchCap})
	d, err := crawler.NewDirect(p, attackAccounts)
	if err != nil {
		return nil, "", err
	}
	school := w.Schools[0].Name
	r, err := crawl(d, school, width, crawlHooks{})
	return r, school, err
}

// wireClient is the crawl surface both osnhttp clients share.
type wireClient interface {
	crawler.Client
	RegisterAccounts(n int) error
}

func newWireClient(wire, base string, hc *http.Client, seed uint64) wireClient {
	if wire == "json" {
		return osnhttp.NewJSONClient(base, hc, nil).WithSeed(seed)
	}
	return osnhttp.NewClient(base, hc, nil).WithSeed(seed)
}

// attackRun is one timed attack against a fresh osnd.
type attackRun struct {
	res    *attackResult
	wall   time.Duration // account registration to finished dossier
	rawCPU time.Duration // CPU time of osnd and of this process over that span
	cpu    time.Duration // the same at the reference speed (see speedMeter)
	setup  setup         // the osnd's start
	rssMB  float64       // the osnd's peak RSS
}

// attackPass runs one attack over one wire against a fresh osnd.
func attackPass(cfg *config, snap, school, wire string) (*attackRun, error) {
	srv, err := startOsnd(cfg.binDir, "-world", snap, "-search-cap", strconv.Itoa(hs2SearchCap))
	if err != nil {
		return nil, err
	}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.conns, DisableCompression: true}}
	defer hc.CloseIdleConnections()
	// Start every pass from the same heap, not from the last pass's
	// garbage.
	runtime.GC()
	self0 := selfCPU()
	start := time.Now()
	cl := newWireClient(wire, srv.URL, hc, cfg.seed)
	r, err := func() (*attackResult, error) {
		if err := cl.RegisterAccounts(attackAccounts); err != nil {
			return nil, err
		}
		return crawl(cl, school, cfg.conns, crawlHooks{})
	}()
	end := time.Now()
	run := &attackRun{res: r, wall: end.Sub(start), rawCPU: selfCPU() - self0, setup: srv.setupSample()}
	srvCPU, cpuErr := srv.CPU()
	run.rawCPU += srvCPU - srv.SetupCPU
	run.cpu = meter.scale(run.rawCPU, start, end)
	run.rssMB = srv.Stop()
	if err != nil {
		return nil, err
	}
	return run, cpuErr
}

// minAttackPairs is the fewest HTML-plus-JSON pass pairs a run makes.
const minAttackPairs = 3

// attackWire runs HTML and JSON attack passes in pairs until the run's
// seconds are spent (at least minAttackPairs), each against a fresh osnd
// serving the HS2 snapshot and each checked against the in-process
// reference. job_cpu_s is the median HTML pass plus the median JSON pass,
// in CPU time of client and server; setup_s is the median of the passes'
// osnd starts; peak_rss_mb is the highest of their peaks, for the reason
// serveRead gives.
func attackWire(cfg *config) (*outcome, error) {
	o := newOutcome()
	dir, err := worldDir(cfg.workDir)
	if err != nil {
		return nil, err
	}
	snap, err := hs2Snapshot(dir)
	if err != nil {
		return nil, err
	}
	ref, school, err := directReference(snap, cfg.conns)
	if err != nil {
		return nil, fmt.Errorf("direct reference: %w", err)
	}
	start := time.Now()
	var rss []float64
	var setups []setup
	walls := map[string][]float64{}
	for pairs := 0; pairs < minAttackPairs || time.Since(start) < cfg.seconds; pairs++ {
		for _, wire := range []string{"html", "json"} {
			run, err := attackPass(cfg, snap, school, wire)
			if err != nil {
				return nil, fmt.Errorf("%s attack: %w", wire, err)
			}
			r := run.res
			setups = append(setups, run.setup)
			rss = append(rss, run.rssMB)
			walls[wire] = append(walls[wire], run.wall.Seconds())
			walls[wire+"_cpu"] = append(walls[wire+"_cpu"], run.cpu.Seconds())
			walls[wire+"_cpu_raw"] = append(walls[wire+"_cpu_raw"], run.rawCPU.Seconds())
			o.attempted += r.requests()
			o.failed += r.failures()
			o.check(reflect.DeepEqual(r, ref), "%s attack differs from crawler.Direct: |H| %d vs %d, effort %+v vs %+v, retries %+v vs %+v, failures %+v vs %+v",
				wire, len(r.H), len(ref.H), r.Effort, ref.Effort, r.Retries, ref.Retries, r.Failures, ref.Failures)
		}
	}
	o.addSetups(setups)
	o.metrics["job_cpu_s"] = median(walls["html_cpu"]) + median(walls["json_cpu"])
	o.metrics["peak_rss_mb"] = slices.Max(rss)
	o.info["attack_html_s"] = walls["html"]
	o.info["attack_json_s"] = walls["json"]
	o.info["attack_html_cpu_s"] = walls["html_cpu"]
	o.info["attack_json_cpu_s"] = walls["json_cpu"]
	o.info["attack_html_cpu_raw_s"] = walls["html_cpu_raw"]
	o.info["attack_json_cpu_raw_s"] = walls["json_cpu_raw"]
	o.info["requests_per_pass"] = ref.requests()
	o.info["h"] = len(ref.H)
	o.info["rss_mb"] = rss
	return o, nil
}
