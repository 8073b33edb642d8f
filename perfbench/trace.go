package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hsprofiler/internal/crawler"
	"hsprofiler/internal/crawler/cache"
	"hsprofiler/internal/experiments"
	"hsprofiler/internal/obs"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/osnhttp"
	"hsprofiler/internal/sim"
	"hsprofiler/internal/socialgraph"
	"hsprofiler/internal/worldgen"
)

// perLayer lists every per-layer metric with its unit. README.md states
// which end-to-end metric and workload each should move.
var perLayer = map[string]string{
	"worldgen.generate_s":                 "s",
	"worldgen.read_snapshot_s":            "s",
	"worldgen.check_invariants_s":         "s",
	"worldgen.evolve_step_ms":             "ms",
	"socialgraph.freeze_s":                "s",
	"socialgraph.apply_delta_ms":          "ms",
	"socialgraph.dirty_rows":              "count",
	"osn.new_platform_s":                  "s",
	"osn.advance_epoch_ms":                "ms",
	"osn.profile_ns":                      "ns",
	"osn.friend_page_ns":                  "ns",
	"osn.search_ns":                       "ns",
	"osn.read_allocs":                     "count",
	"osnhttp.handler_us.search.p50":       "us",
	"osnhttp.handler_us.search.p99":       "us",
	"osnhttp.handler_us.profile.p50":      "us",
	"osnhttp.handler_us.profile.p99":      "us",
	"osnhttp.handler_us.friends.p50":      "us",
	"osnhttp.handler_us.friends.p99":      "us",
	"osnhttp.client_us.html":              "us",
	"osnhttp.client_us.json":              "us",
	"osnhttp.client_minus_server_us.html": "us",
	"osnhttp.client_minus_server_us.json": "us",
	"osnhttp.response_bytes.html":         "bytes",
	"osnhttp.response_bytes.json":         "bytes",
	"crawler.requests.seed":               "count",
	"crawler.requests.profile":            "count",
	"crawler.requests.friends":            "count",
	"crawler.retries":                     "count",
	"crawler.failures":                    "count",
	"crawler.cache_hit_ratio":             "ratio",
	"core.stage_s.seeds":                  "s",
	"core.stage_s.seed_profiles":          "s",
	"core.stage_s.friend_lists":           "s",
	"core.stage_s.window_profiles":        "s",
	"core.stage_s.rank":                   "s",
	"extend.build_s":                      "s",
	"extend.requests":                     "count",
	"experiments.table2_s":                "s",
	"experiments.table3_s":                "s",
	"experiments.table4_s":                "s",
	"go.gc_pause_ms":                      "ms",
	"go.heap_peak_mb":                     "MB",
	"loadgen.lateness_p50_ms":             "ms",
	"loadgen.lateness_p99_ms":             "ms",
	"perfbench.traced_job_s":              "s",
	"perfbench.untraced_job_s":            "s",
	"perfbench.trace_overhead_s":          "s",
	"perfbench.uncovered_frac":            "ratio",
}

// layerSuite is the traced run. It times calls into every layer's public
// functions from the benchmark's own code, the same suite whichever
// workload is named, so every per-layer metric is measured on every run:
// the paper's tables in-process, the HS2 attack over both wires against
// an in-process traced server, the metro read plane and its HTTP handlers,
// and eight epochs of rotation under closed-loop reads. It then runs the
// named workload's job once untraced, for the tracing overhead.
func layerSuite(cfg *config) (*outcome, error) {
	o := newOutcome()
	rs := startRuntimeSampler()
	dir, err := worldDir(cfg.workDir)
	if err != nil {
		return nil, err
	}
	hs2, err := hs2Snapshot(dir)
	if err != nil {
		return nil, err
	}
	metro, err := metroSnapshot(dir)
	if err != nil {
		return nil, err
	}
	ref, school, err := directReference(hs2, cfg.conns)
	if err != nil {
		return nil, fmt.Errorf("direct reference: %w", err)
	}

	traced := map[string]float64{}
	uncovered := map[string]float64{}
	if traced["paper-tables"], uncovered["paper-tables"], err = traceTables(o); err != nil {
		return nil, err
	}
	if traced["attack-wire"], uncovered["attack-wire"], err = traceAttack(cfg, o, hs2, school, ref); err != nil {
		return nil, err
	}
	if err := traceServe(cfg, o, metro, traced, uncovered); err != nil {
		return nil, err
	}
	untraced, err := untracedJob(cfg, hs2, metro, school, ref, o)
	if err != nil {
		return nil, err
	}
	rs.stop(o)

	o.metrics["perfbench.traced_job_s"] = traced[cfg.workload]
	o.metrics["perfbench.untraced_job_s"] = untraced
	o.metrics["perfbench.trace_overhead_s"] = traced[cfg.workload] - untraced
	o.metrics["perfbench.uncovered_frac"] = uncovered[cfg.workload]
	o.info["traced_job_s"] = traced
	o.info["uncovered_frac"] = uncovered
	o.info["contention"] = "tables and layer timings uncontended; wire, handler and rotation timings contended (client and server share one CPU in one process)"
	return o, nil
}

// traceTables generates the paper's three worlds and renders Tables 2-4
// in-process. Its job is the whole section; what generation, the repeated
// freeze and the three tables leave of it is uncovered.
func traceTables(o *outcome) (job, uncovered float64, err error) {
	start := time.Now()
	lab := experiments.NewLab()
	defer lab.Close()
	var gen, freeze time.Duration
	for _, sc := range []experiments.Scenario{experiments.HS1(), experiments.HS2(), experiments.HS3()} {
		t0 := time.Now()
		w, err := worldgen.Generate(sc.Config, sc.Seed)
		if err != nil {
			return 0, 0, err
		}
		// Generate already froze the graph once; freezing the same map
		// graph again times that step on its own.
		t1 := time.Now()
		w.Graph.Freeze()
		t2 := time.Now()
		gen += t1.Sub(t0)
		freeze += t2.Sub(t1)
		if err := lab.UseWorld(sc, w); err != nil {
			return 0, 0, err
		}
	}
	o.metrics["worldgen.generate_s"] = gen.Seconds()
	o.metrics["socialgraph.freeze_s"] = freeze.Seconds()
	covered := gen + freeze
	var out strings.Builder
	for _, id := range []string{"table2", "table3", "table4"} {
		e, _ := experiments.Lookup(id)
		t0 := time.Now()
		text, err := e.Run(lab)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", id, err)
		}
		d := time.Since(t0)
		covered += d
		o.metrics["experiments."+id+"_s"] = d.Seconds()
		fmt.Fprintf(&out, "### %s — %s\n\n%s\n", e.ID, e.Title, text)
	}
	o.attempted++
	if out.String() != goldenTables {
		o.failed++
		o.check(false, "in-process Tables 2-4 differ from the golden text:\n%s", out.String())
	}
	wall := time.Since(start)
	return wall.Seconds(), 1 - covered.Seconds()/wall.Seconds(), nil
}

// traceAttack runs the HS2 attack over each wire against an in-process
// server on a fresh platform, with the handler, every client call and
// core's step spans timed. Its job is the HTML plus JSON pass time; what
// registration, core's stages and the dossier build leave is uncovered.
func traceAttack(cfg *config, o *outcome, snap, school string, ref *attackResult) (job, uncovered float64, err error) {
	w, err := worldgen.ReadSnapshotFile(snap)
	if err != nil {
		return 0, 0, err
	}
	var covered float64
	stages := map[string]float64{}
	for _, wire := range []string{"html", "json"} {
		p := osn.NewPlatform(w, osn.Facebook(), osn.Config{SearchPerAccount: hs2SearchCap})
		ts, err := startTracedServer(osnhttp.NewServer(p))
		if err != nil {
			return 0, 0, err
		}
		rt := &tracedTransport{inner: &http.Transport{MaxIdleConnsPerHost: cfg.conns, DisableCompression: true}, open: map[int64][]string{}}
		start := time.Now()
		cl := newWireClient(wire, ts.URL, &http.Client{Transport: rt}, cfg.seed)
		if err := cl.RegisterAccounts(attackAccounts); err != nil {
			ts.close()
			return 0, 0, err
		}
		register := time.Since(start)
		tc := &tracedClient{inner: cl, rt: rt}
		tr := obs.NewTrace("perfbench")
		tr.MaxSpans = 1 << 20
		var coreRun, build time.Duration
		var cs cache.Stats
		r, err := crawl(tc, school, cfg.conns, crawlHooks{
			ctx:      tr.Context(context.Background()),
			core:     func(d time.Duration) { coreRun = d },
			dossier:  func(d time.Duration) { build = d },
			cacheHit: func(s cache.Stats) { cs = s },
		})
		wall := time.Since(start)
		ts.close()
		rt.inner.(*http.Transport).CloseIdleConnections()
		if err != nil {
			return 0, 0, fmt.Errorf("traced %s attack: %w", wire, err)
		}
		tr.Finish()
		o.attempted += r.requests()
		o.failed += r.failures()
		o.check(reflect.DeepEqual(r, ref), "traced %s attack differs from crawler.Direct", wire)

		// core's step spans, folded into the five stages; rank is the
		// part of the core run no step span covers (the final ranking).
		inSteps := time.Duration(0)
		for _, s := range tr.Root().Children() {
			stage, ok := coreStage[s.Name()]
			if ok {
				stages[stage] += s.Duration().Seconds()
				inSteps += s.Duration()
			}
		}
		stages["rank"] += max(coreRun-inSteps, 0).Seconds()
		stages["build"] += build.Seconds()
		covered += (register + coreRun + build).Seconds()
		job += wall.Seconds()

		var callUS, netUS []float64
		srvTimes := ts.byRequestID()
		for _, c := range tc.calls {
			callUS = append(callUS, us(c.dur))
			rest := c.dur
			for _, id := range c.ids {
				rest -= srvTimes[id]
			}
			netUS = append(netUS, us(rest))
		}
		o.metrics["osnhttp.client_us."+wire] = median(callUS)
		o.metrics["osnhttp.client_minus_server_us."+wire] = median(netUS)
		o.metrics["osnhttp.response_bytes."+wire] = float64(rt.bytes.Load())
		if wire == "html" {
			o.metrics["crawler.requests.seed"] = float64(r.Effort.SeedRequests)
			o.metrics["crawler.requests.profile"] = float64(r.Effort.ProfileRequests)
			o.metrics["crawler.requests.friends"] = float64(r.Effort.FriendListRequests)
			o.metrics["crawler.retries"] = float64(r.Retries.Total())
			o.metrics["crawler.failures"] = float64(r.failures())
			o.metrics["crawler.cache_hit_ratio"] = float64(cs.Hits.Total()) / float64(cs.Hits.Total()+cs.Misses.Total())
			o.metrics["extend.requests"] = float64(r.DossierEffort.Total())
		}
	}
	for _, s := range []string{"seeds", "seed_profiles", "friend_lists", "window_profiles", "rank"} {
		o.metrics["core.stage_s."+s] = stages[s]
	}
	o.metrics["extend.build_s"] = stages["build"]
	return job, 1 - covered/job, nil
}

// coreStage maps core.RunContext's step spans onto the reported stages.
var coreStage = map[string]string{
	"lookup-school":     "seeds",
	"collect-seeds":     "seeds",
	"extract-core":      "seed_profiles",
	"harvest-and-score": "friend_lists",
	"re-harvest":        "friend_lists",
	"enhanced-promote":  "window_profiles",
	"window-profiles":   "window_profiles",
}

// traceServe loads the metro snapshot, times the read plane's calls
// directly, serves it from an in-process traced server for a closed pass
// and a low-rate open pass, then rotates eight epochs under closed-loop reads.
func traceServe(cfg *config, o *outcome, snap string, traced, uncovered map[string]float64) error {
	t0 := time.Now()
	w, err := worldgen.ReadSnapshotFile(snap)
	if err != nil {
		return err
	}
	t1 := time.Now()
	if err := w.CheckInvariants(); err != nil {
		return err
	}
	t2 := time.Now()
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{})
	t3 := time.Now()
	o.metrics["worldgen.read_snapshot_s"] = t1.Sub(t0).Seconds()
	o.metrics["worldgen.check_invariants_s"] = t2.Sub(t1).Seconds()
	o.metrics["osn.new_platform_s"] = t3.Sub(t2).Seconds()
	if err := traceReadPlane(o, p); err != nil {
		return err
	}

	ts, err := startTracedServer(osnhttp.NewServer(p))
	if err != nil {
		return err
	}
	defer ts.close()
	h, err := harvestTargets(ts.URL)
	if err != nil {
		return err
	}
	pool, err := h.bind(ts.URL, cfg.conns)
	if err != nil {
		return err
	}
	if err := warm(pool, cfg); err != nil {
		return err
	}
	ts.reset()
	closed, err := runLoad(pool, loadSpec{Conns: cfg.conns, Seed: cfg.seed, Duration: 2 * time.Second})
	if err != nil {
		return err
	}
	o.foldLoad(closed)
	traced["serve-read"] = wallPer10k(closed)
	uncovered["serve-read"] = 1 - ts.total().Seconds()*1000/sum(closed.Lat)

	ts.reset()
	low, err := runLoad(pool, loadSpec{Conns: cfg.conns, Seed: cfg.seed + 1, Rate: lowRate, Duration: 2 * time.Second})
	if err != nil {
		return err
	}
	o.foldLoad(low)
	for k, name := range []string{"search", "profile", "friends"} {
		lat := ts.kindUS(k)
		o.metrics["osnhttp.handler_us."+name+".p50"] = median(lat)
		o.metrics["osnhttp.handler_us."+name+".p99"] = quantile(lat, 0.99)
	}
	o.metrics["loadgen.lateness_p50_ms"] = median(low.Late)
	o.metrics["loadgen.lateness_p99_ms"] = quantile(low.Late, 0.99)

	traced["serve-rotate"], uncovered["serve-rotate"], err = traceRotate(cfg, o, w, p, pool)
	return err
}

// traceReadPlane times the zero-allocation read calls over targets from
// every school, and counts their allocations.
func traceReadPlane(o *outcome, p *osn.Platform) error {
	tok, err := p.RegisterAccount("perfbench", sim.Date{Year: 1985, Month: 1, Day: 1})
	if err != nil {
		return err
	}
	type page struct{ school, page int }
	var ids []osn.PublicID
	var pages []page
	for _, s := range p.Schools() {
		for pg := 0; ; pg++ {
			res, more, _, err := p.SchoolSearchEpoch(tok, s.ID, pg)
			if err != nil {
				return err
			}
			pages = append(pages, page{s.ID, pg})
			for _, r := range res {
				ids = append(ids, r.ID)
			}
			if !more || len(res) == 0 {
				break
			}
		}
	}
	buf := make([]osn.FriendRef, 0, 64)
	const n = 50000
	perCall := func(fn func(i int)) float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return float64(time.Since(t0).Nanoseconds()) / n
	}
	o.metrics["osn.profile_ns"] = perCall(func(i int) { p.ProfileEpoch(tok, ids[i%len(ids)]) })
	o.metrics["osn.friend_page_ns"] = perCall(func(i int) { p.FriendPageEpochInto(buf, tok, ids[i%len(ids)], 0) })
	o.metrics["osn.search_ns"] = perCall(func(i int) {
		pg := pages[i%len(pages)]
		p.SchoolSearchEpoch(tok, pg.school, pg.page)
	})
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		p.ProfileEpoch(tok, ids[i%len(ids)])
		p.FriendPageEpochInto(buf, tok, ids[i%len(ids)], 0)
		pg := pages[i%len(pages)]
		p.SchoolSearchEpoch(tok, pg.school, pg.page)
		i++
	})
	o.metrics["osn.read_allocs"] = allocs / 3
	return nil
}

// traceRotate advances the world rotateEpochs epochs as osnd -evolve does
// (Evolver.Step, then AdvanceEpochDelta), replaying each step's delta
// through ApplyDeltaScratch to time the CSR patch alone, while pool's
// server takes closed-loop reads as in serve-rotate. Its job runs until the first response
// carrying the last epoch; what step, replay and advance leave of it is
// uncovered.
func traceRotate(cfg *config, o *outcome, w *worldgen.World, p *osn.Platform, pool *urlPool) (job, uncovered float64, err error) {
	ev := worldgen.NewEvolver(worldgen.DefaultEvolveConfig(), cfg.conns)
	var scratch socialgraph.PatchScratch
	var steps, replays, advances []float64
	dirty := 0
	var reads *loadResult
	var readErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		reads, readErr = runLoad(pool, loadSpec{Conns: cfg.conns, Seed: cfg.seed + 2,
			Duration: 60 * time.Second, UntilEpoch: rotateEpochs})
	}()
	var covered time.Duration
	for e := 1; e <= rotateEpochs; e++ {
		prev := w.Frozen()
		t0 := time.Now()
		d, err := ev.Step(w, e)
		if err != nil {
			return 0, 0, fmt.Errorf("evolve epoch %d: %w", e, err)
		}
		t1 := time.Now()
		_, st, err := socialgraph.ApplyDeltaScratch(prev, d.Added, d.Removed, cfg.conns, &scratch)
		if err != nil {
			return 0, 0, fmt.Errorf("replaying epoch %d: %w", e, err)
		}
		t2 := time.Now()
		p.AdvanceEpochDelta(context.Background(), d)
		t3 := time.Now()
		steps = append(steps, ms(t1.Sub(t0)))
		replays = append(replays, ms(t2.Sub(t1)))
		advances = append(advances, ms(t3.Sub(t2)))
		dirty += st.DirtyRows
		covered += t3.Sub(t0)
	}
	<-done
	if readErr != nil {
		return 0, 0, readErr
	}
	o.foldLoad(reads)
	o.metrics["worldgen.evolve_step_ms"] = median(steps)
	o.metrics["socialgraph.apply_delta_ms"] = median(replays)
	o.metrics["socialgraph.dirty_rows"] = float64(dirty)
	o.metrics["osn.advance_epoch_ms"] = median(advances)
	job = reads.EpochAt.Seconds()
	return job, 1 - covered.Seconds()/job, nil
}

// untracedJob measures the wall time of the named workload's job once as
// its untraced run does, for the tracing overhead.
func untracedJob(cfg *config, hs2, metro, school string, ref *attackResult, o *outcome) (float64, error) {
	switch cfg.workload {
	case "paper-tables":
		out, run, err := runChild(filepath.Join(cfg.binDir, "experiments"), "-run", "table2,table3,table4")
		if err != nil {
			return 0, err
		}
		o.attempted++
		o.check(normalizeTables(out) == goldenTables, "Tables 2-4 differ from the golden text")
		return run.wall.Seconds(), nil
	case "attack-wire":
		job := 0.0
		for _, wire := range []string{"html", "json"} {
			run, err := attackPass(cfg, hs2, school, wire)
			if err != nil {
				return 0, err
			}
			o.attempted += run.res.requests()
			o.failed += run.res.failures()
			o.check(reflect.DeepEqual(run.res, ref), "%s attack differs from crawler.Direct", wire)
			job += run.wall.Seconds()
		}
		return job, nil
	default: // serve-read
		srv, err := startOsnd(cfg.binDir, "-world", metro)
		if err != nil {
			return 0, err
		}
		defer srv.Stop()
		h, err := harvestTargets(srv.URL)
		if err != nil {
			return 0, err
		}
		pool, err := h.bind(srv.URL, cfg.conns)
		if err != nil {
			return 0, err
		}
		if err := warm(pool, cfg); err != nil {
			return 0, err
		}
		r, err := runLoad(pool, loadSpec{Conns: cfg.conns, Seed: cfg.seed, Duration: 2 * time.Second})
		if err != nil {
			return 0, err
		}
		o.foldLoad(r)
		return wallPer10k(r), nil
	}
}

// wallPer10k is a closed pass's wall time per 10,000 requests.
func wallPer10k(r *loadResult) float64 { return r.Elapsed.Seconds() * 10000 / float64(len(r.Lat)) }

// runtimeSampler tracks the traced process's peak heap and reads its GC
// pause total from runtime/metrics.
type runtimeSampler struct {
	stopc, done chan struct{}
	peak        uint64
}

func startRuntimeSampler() *runtimeSampler {
	rs := &runtimeSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(rs.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			rs.peak = max(rs.peak, s[0].Value.Uint64())
			select {
			case <-rs.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return rs
}

// stop ends sampling and records go.heap_peak_mb and go.gc_pause_ms (the
// pause histogram's total, each bucket counted at its midpoint).
func (rs *runtimeSampler) stop(o *outcome) {
	close(rs.stopc)
	<-rs.done
	s := []metrics.Sample{{Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(s)
	total := 0.0
	if s[0].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[0].Value.Float64Histogram()
		for i, c := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			total += float64(c) * (lo + hi) / 2
		}
	}
	o.metrics["go.gc_pause_ms"] = total * 1000
	o.metrics["go.heap_peak_mb"] = float64(rs.peak) / (1 << 20)
}

// tracedServer serves a handler on a loopback port and times every
// request: by endpoint kind, and by X-Osn-Request-Id for the client join.
type tracedServer struct {
	URL     string
	inner   http.Handler
	srv     *http.Server
	done    chan struct{}
	mu      sync.Mutex
	byID    map[string]time.Duration
	kinds   [3][]float64 // handler µs per kindSearch/kindProfile/kindFriends
	handled time.Duration
}

func startTracedServer(h http.Handler) (*tracedServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ts := &tracedServer{URL: "http://" + ln.Addr().String(), inner: h, done: make(chan struct{}), byID: map[string]time.Duration{}}
	ts.srv = osnhttp.ServerConfig{}.WithDefaults().HTTPServer("", http.HandlerFunc(ts.serve))
	go func() {
		defer close(ts.done)
		ts.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return ts, nil
}

func (ts *tracedServer) serve(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	ts.inner.ServeHTTP(w, r)
	d := time.Since(t0)
	kind := kindFriends
	switch {
	case strings.Contains(r.URL.Path, "/search"):
		kind = kindSearch
	case strings.Contains(r.URL.Path, "/profile"):
		kind = kindProfile
	}
	id := r.Header.Get(osnhttp.RequestIDHeader)
	ts.mu.Lock()
	if id != "" {
		ts.byID[id] = d
	}
	ts.kinds[kind] = append(ts.kinds[kind], us(d))
	ts.handled += d
	ts.mu.Unlock()
}

func (ts *tracedServer) reset() {
	ts.mu.Lock()
	ts.kinds = [3][]float64{}
	ts.handled = 0
	ts.mu.Unlock()
}

func (ts *tracedServer) kindUS(k int) []float64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return append([]float64(nil), ts.kinds[k]...)
}

func (ts *tracedServer) total() time.Duration {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.handled
}

func (ts *tracedServer) byRequestID() map[string]time.Duration {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.byID
}

func (ts *tracedServer) close() {
	ts.srv.Close()
	<-ts.done
}

// tracedTransport counts response bytes and records the request ids each
// in-flight client call sends, keyed by the calling goroutine: a client
// call and its round trips run on one goroutine.
type tracedTransport struct {
	inner http.RoundTripper
	bytes atomic.Int64
	mu    sync.Mutex
	open  map[int64][]string
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	g := goid()
	t.mu.Lock()
	if ids, ok := t.open[g]; ok {
		t.open[g] = append(ids, req.Header.Get(osnhttp.RequestIDHeader))
	}
	t.mu.Unlock()
	resp, err := t.inner.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// goid is the calling goroutine's id, read from its stack header
// ("goroutine 123 [running]:").
func goid() int64 {
	var buf [64]byte
	s := buf[len("goroutine "):runtime.Stack(buf[:], false)]
	var id int64
	for _, c := range s {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// tracedCall is one crawler.Client call: its duration and the request ids
// it sent.
type tracedCall struct {
	dur time.Duration
	ids []string
}

// tracedClient times every fetching call of a crawler.Client.
type tracedClient struct {
	inner crawler.Client
	rt    *tracedTransport
	mu    sync.Mutex
	calls []tracedCall
}

func (c *tracedClient) begin() (int64, time.Time) {
	g := goid()
	c.rt.mu.Lock()
	c.rt.open[g] = []string{}
	c.rt.mu.Unlock()
	return g, time.Now()
}

func (c *tracedClient) end(g int64, t0 time.Time) {
	d := time.Since(t0)
	c.rt.mu.Lock()
	ids := c.rt.open[g]
	delete(c.rt.open, g)
	c.rt.mu.Unlock()
	c.mu.Lock()
	c.calls = append(c.calls, tracedCall{d, ids})
	c.mu.Unlock()
}

func (c *tracedClient) Accounts() int { return c.inner.Accounts() }

func (c *tracedClient) LookupSchool(name string) (osn.SchoolRef, error) {
	g, t0 := c.begin()
	defer c.end(g, t0)
	return c.inner.LookupSchool(name)
}

func (c *tracedClient) Search(acct, schoolID, page int) ([]osn.SearchResult, bool, error) {
	g, t0 := c.begin()
	defer c.end(g, t0)
	return c.inner.Search(acct, schoolID, page)
}

func (c *tracedClient) Profile(acct int, id osn.PublicID) (*osn.PublicProfile, error) {
	g, t0 := c.begin()
	defer c.end(g, t0)
	return c.inner.Profile(acct, id)
}

func (c *tracedClient) FriendPage(acct int, id osn.PublicID, page int) ([]osn.FriendRef, bool, error) {
	g, t0 := c.begin()
	defer c.end(g, t0)
	return c.inner.FriendPage(acct, id, page)
}
