package main

import (
	"slices"
	"time"
)

// rotateEpochs is how many epochs the traced run's rotation advances.
const rotateEpochs = 8

// closedWindow is the length of one timed window of serve-read's closed
// loop.
const closedWindow = time.Second

// serveRead serves the metro world from three fresh osnd processes: a
// closed loop with one connection per CPU for three quarters of the run,
// in windows of closedWindow, then open loops at the low and high rates
// for an eighth each. job_cpu_s is the median over the windows of the CPU
// time osnd and the load generator spent per 10,000 closed-loop requests;
// the latencies are reported, not gated (see README.md). peak_rss_mb is
// the highest of the three servers' peaks: one osnd peaks at about 178 or
// about 210 MB as its start-up garbage collections fall, so a median of
// three flips between the two and the highest does not. Two more fresh
// starts make five samples for setup_s.
func serveRead(cfg *config) (*outcome, error) {
	o := newOutcome()
	dir, err := worldDir(cfg.workDir)
	if err != nil {
		return nil, err
	}
	snap, err := metroSnapshot(dir)
	if err != nil {
		return nil, err
	}
	var h *harvest
	var setups []setup
	var rss []float64
	// fresh starts a fresh osnd, binds the targets to it and warms it up.
	fresh := func() (*server, *urlPool, error) {
		srv, err := startOsnd(cfg.binDir, "-world", snap)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, srv.setupSample())
		if h == nil {
			h, err = harvestTargets(srv.URL)
		}
		var pool *urlPool
		if err == nil {
			pool, err = h.bind(srv.URL, cfg.conns)
		}
		if err == nil {
			err = warm(pool, cfg)
		}
		if err != nil {
			rss = append(rss, srv.Stop())
			return nil, nil, err
		}
		return srv, pool, nil
	}
	// stop stops a server and keeps its peak RSS.
	stop := func(srv *server) { rss = append(rss, srv.Stop()) }

	srv, pool, err := fresh()
	if err != nil {
		return nil, err
	}
	closed := &loadResult{}
	var perWindow, rawPerWindow []float64
	for k := uint64(0); closed.Elapsed < cfg.seconds*3/4 || len(perWindow) < 3; k++ {
		cpu0, err := srv.CPU()
		if err != nil {
			stop(srv)
			return nil, err
		}
		self0 := selfCPU()
		w0 := time.Now()
		r, err := runLoad(pool, loadSpec{Conns: cfg.conns, Seed: splitmix64(cfg.seed) + k, Duration: closedWindow})
		if err != nil {
			stop(srv)
			return nil, err
		}
		w1 := time.Now()
		self := selfCPU() - self0
		cpu1, err := srv.CPU()
		if err != nil {
			stop(srv)
			return nil, err
		}
		closed.merge(r)
		closed.Elapsed += r.Elapsed
		per10k := 10000 / float64(max(len(r.Lat), 1))
		raw := cpu1 - cpu0 + self
		perWindow = append(perWindow, meter.scale(raw, w0, w1).Seconds()*per10k)
		rawPerWindow = append(rawPerWindow, raw.Seconds()*per10k)
	}
	stop(srv)
	open := func(seed uint64, rate float64) (*loadResult, error) {
		srv, pool, err := fresh()
		if err != nil {
			return nil, err
		}
		defer stop(srv)
		return runLoad(pool, loadSpec{Conns: cfg.conns, Seed: seed, Rate: rate, Duration: cfg.seconds / 8})
	}
	low, err := open(cfg.seed+1, lowRate)
	if err != nil {
		return nil, err
	}
	high, err := open(cfg.seed+2, highRate)
	if err != nil {
		return nil, err
	}
	more, err := setupSamples(cfg, []string{"-world", snap}, 2)
	if err != nil {
		return nil, err
	}
	o.metrics["job_cpu_s"] = median(perWindow)
	o.metrics["peak_rss_mb"] = slices.Max(rss)
	o.addSetups(append(setups, more...))
	for _, r := range []*loadResult{closed, low, high} {
		o.foldLoad(r)
	}
	o.info["serve_closed_rps"] = float64(len(closed.Lat)) / closed.Elapsed.Seconds()
	o.info["closed_cpu_s_per_10k"] = perWindow
	o.info["closed_cpu_raw_s_per_10k"] = rawPerWindow
	o.info["reads"] = map[string]any{
		"closed":    readReport(closed),
		"open_low":  readReport(low),
		"open_high": readReport(high),
	}
	o.info["world"] = worldInfo(h)
	o.info["rss_mb"] = rss
	return o, nil
}

func worldInfo(h *harvest) map[string]any {
	return map[string]any{"schools": metroSchools, "seed": worldSeed, "targets": len(h.ids)}
}
