package experiments

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"time"

	"hsprofiler/internal/core"
	"hsprofiler/internal/crawler"
	"hsprofiler/internal/crawler/cache"
	"hsprofiler/internal/eval"
	"hsprofiler/internal/faults"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/osn/telemetry"
	"hsprofiler/internal/osnhttp"
	"hsprofiler/internal/worldgen"
)

// Lab caches the expensive artefacts experiments share: generated worlds,
// HTTP-served platforms, and attack runs. All attack traffic flows through
// a real HTTP server so the effort numbers in Table 3 are actual HTTP GET
// counts. Safe for concurrent use.
type Lab struct {
	mu    sync.Mutex
	cells map[string]*cell
	runs  map[string]*core.Result
	// workers is the crawl width passed to every attack run (0 means
	// 1); faultRate, when positive, injects
	// deterministic transport faults into every crawl; transport picks
	// the wire (HTML scraping vs the JSON API) crawls ride.
	workers   int
	faultRate float64
	transport Transport
	// telemetry, when set, attaches a watchtower table to every new cell's
	// platform so experiments can prove observation never perturbs results.
	telemetry bool
}

// Transport selects which wire the lab's crawls ride: the HTML views the
// paper's crawlers scraped, or the /api/v1 JSON surface. Both clients
// implement the identical request granularity and error mapping, so the
// choice must not change any table — the JSON-transport E2E test holds the
// two bit-identical.
type Transport int

const (
	TransportHTML Transport = iota
	TransportJSON
)

func (t Transport) String() string {
	if t == TransportJSON {
		return "json"
	}
	return "html"
}

// labClient is the client surface a cell needs: the crawler-facing
// interface plus account registration. Satisfied by both osnhttp.Client
// and osnhttp.JSONClient.
type labClient interface {
	crawler.Client
	RegisterAccounts(n int) error
}

// cell is one scenario's instantiated environment.
type cell struct {
	scenario Scenario
	world    *worldgen.World
	platform *osn.Platform
	server   *httptest.Server
	client   labClient
	// cached memoizes profile and friend-list fetches across the cell's
	// runs; the effort tallies count above it, so Table 3 is unaffected.
	cached *cache.Cache
	truth  *eval.GroundTruth
}

// NewLab returns an empty lab.
func NewLab() *Lab {
	return &Lab{cells: make(map[string]*cell), runs: make(map[string]*core.Result)}
}

// Close shuts down the lab's HTTP servers.
func (l *Lab) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.cells {
		c.server.Close()
	}
	l.cells = map[string]*cell{}
	l.runs = map[string]*core.Result{}
}

// env builds (or returns the cached) environment for a scenario. Cells are
// keyed by transport as well, so switching wires mid-lab builds a fresh
// server instead of mixing caches across surfaces.
func (l *Lab) env(sc Scenario) (*cell, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	key := fmt.Sprintf("%s/%d/%s/tel%t", sc.Label, sc.Seed, l.transport, l.telemetry)
	if c, ok := l.cells[key]; ok {
		return c, nil
	}
	world, err := worldgen.Generate(sc.Config, sc.Seed)
	if err != nil {
		return nil, err
	}
	c, err := buildCell(sc, world, l.transport, l.telemetry)
	if err != nil {
		return nil, err
	}
	l.cells[key] = c
	return c, nil
}

// UseWorld installs a pre-built world (e.g. one reloaded from a binary
// snapshot) as the scenario's environment instead of generating one. It must
// be called before anything else instantiates the scenario; attacks then run
// against the provided world.
func (l *Lab) UseWorld(sc Scenario, world *worldgen.World) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	key := fmt.Sprintf("%s/%d/%s/tel%t", sc.Label, sc.Seed, l.transport, l.telemetry)
	if _, ok := l.cells[key]; ok {
		return fmt.Errorf("experiments: scenario %s already instantiated", key)
	}
	c, err := buildCell(sc, world, l.transport, l.telemetry)
	if err != nil {
		return err
	}
	l.cells[key] = c
	return nil
}

// SetTransport selects the wire subsequent runs crawl over. Cells and runs
// are keyed by transport, so switching never leaks state across surfaces.
func (l *Lab) SetTransport(t Transport) {
	l.mu.Lock()
	l.transport = t
	l.mu.Unlock()
}

// SetTelemetry turns the defender's watchtower on or off for subsequently
// built cells. Cells and runs are keyed by the flag, so the telemetry
// bit-identity experiment compares two genuinely separate environments.
func (l *Lab) SetTelemetry(enabled bool) {
	l.mu.Lock()
	l.telemetry = enabled
	l.mu.Unlock()
}

// Telemetry returns the scenario's watchtower table, or nil when the lab
// runs unobserved.
func (l *Lab) Telemetry(sc Scenario) (*telemetry.Table, error) {
	c, err := l.env(sc)
	if err != nil {
		return nil, err
	}
	return c.platform.Telemetry(), nil
}

// buildCell assembles a scenario environment around a world: platform, HTTP
// server, registered attacker accounts, fetch cache and ground truth.
func buildCell(sc Scenario, world *worldgen.World, transport Transport, withTelemetry bool) (*cell, error) {
	platform := osn.NewPlatform(world, osn.Facebook(), osn.Config{
		SearchPerAccount: sc.SearchPerAccount,
	})
	if withTelemetry {
		// A one-hour window so no rotation happens mid-experiment: the
		// snapshot covers the whole run.
		platform.WithTelemetry(telemetry.NewTable(time.Hour))
	}
	server := httptest.NewServer(osnhttp.NewServer(platform))
	var client labClient
	if transport == TransportJSON {
		client = osnhttp.NewJSONClient(server.URL, server.Client(), nil)
	} else {
		client = osnhttp.NewClient(server.URL, server.Client(), nil)
	}
	if err := client.RegisterAccounts(sc.SeedAccounts + sc.EvalAccounts); err != nil {
		server.Close()
		return nil, err
	}
	return &cell{
		scenario: sc,
		world:    world,
		platform: platform,
		server:   server,
		client:   client,
		cached:   cache.New(client),
		truth:    eval.NewGroundTruth(platform, 0),
	}, nil
}

// SetWorkers sets the crawl width for subsequent runs (0 means 1). Runs
// are cached per width, so switching does not leak results across
// settings.
func (l *Lab) SetWorkers(n int) {
	l.mu.Lock()
	l.workers = n
	l.mu.Unlock()
}

// SetFaultRate makes every subsequent crawl run against a deterministically
// hostile transport: rate is the per-request fault probability, spread over
// the injector's fault kinds (faults.Composite, seeded by the scenario).
// Each run gets a fresh injector, so its fault schedule depends only on the
// rate, the world seed and the run's own request sequence — not on how many
// runs came before it.
func (l *Lab) SetFaultRate(rate float64) {
	l.mu.Lock()
	l.faultRate = rate
	l.mu.Unlock()
}

// attackClient builds the crawl surface for one run: the cell's memoizing
// cache over HTTP, with a fresh per-run fault injector on top when the lab
// is configured hostile. Injecting above the cache keeps the fault schedule
// a pure function of the logical request sequence.
func (l *Lab) attackClient(c *cell) crawler.Client {
	l.mu.Lock()
	rate := l.faultRate
	l.mu.Unlock()
	if rate <= 0 {
		return c.cached
	}
	return faults.New(faults.Composite(rate, c.scenario.Seed)).Client(c.cached)
}

// World returns the scenario's generated world.
func (l *Lab) World(sc Scenario) (*worldgen.World, error) {
	c, err := l.env(sc)
	if err != nil {
		return nil, err
	}
	return c.world, nil
}

// Platform returns the scenario's platform (for evaluation-side access).
func (l *Lab) Platform(sc Scenario) (*osn.Platform, error) {
	c, err := l.env(sc)
	if err != nil {
		return nil, err
	}
	return c.platform, nil
}

// Truth returns the scenario's ground-truth oracle.
func (l *Lab) Truth(sc Scenario) (*eval.GroundTruth, error) {
	c, err := l.env(sc)
	if err != nil {
		return nil, err
	}
	return c.truth, nil
}

// Session returns a fresh crawler session over the scenario's crawl
// surface (the cell's fetch cache over HTTP, fault-injected when the lab
// is configured hostile).
func (l *Lab) Session(sc Scenario) (*crawler.Session, error) {
	c, err := l.env(sc)
	if err != nil {
		return nil, err
	}
	return crawler.NewSession(l.attackClient(c)), nil
}

// seedAccountList returns the indexes of the attack accounts.
func seedAccountList(sc Scenario) []int {
	out := make([]int, sc.SeedAccounts)
	for i := range out {
		out[i] = i
	}
	return out
}

// evalAccountList returns the indexes of the held-out accounts.
func evalAccountList(sc Scenario) []int {
	out := make([]int, sc.EvalAccounts)
	for i := range out {
		out[i] = sc.SeedAccounts + i
	}
	return out
}

// RunVariant identifies a cached attack run.
type RunVariant int

const (
	// RunBasic is the §4.1 methodology with no extra profile downloads
	// (the Table 3 "basic" effort row).
	RunBasic RunVariant = iota
	// RunBasicProfiles is basic plus the top-window profile downloads that
	// §4.4 filtering needs.
	RunBasicProfiles
	// RunEnhanced is the §4.3 methodology (always downloads the window).
	RunEnhanced
)

func (v RunVariant) params(sc Scenario) core.Params {
	p := core.Params{
		CurrentYear:  sc.CurrentYear(),
		MaxThreshold: sc.MaxThreshold,
		SeedAccounts: seedAccountList(sc),
	}
	switch v {
	case RunBasicProfiles:
		p.FetchProfiles = true
	case RunEnhanced:
		p.Mode = core.Enhanced
	}
	return p
}

// Run executes (or returns the cached) attack run for a scenario/variant.
// Each run uses a fresh session, so its Effort tally is isolated.
func (l *Lab) Run(sc Scenario, v RunVariant) (*core.Result, error) {
	return l.RunThreshold(sc, v, sc.MaxThreshold)
}

// RunThreshold runs the variant with a specific MaxThreshold, which sizes
// the enhanced methodology's profile window (1+ε)·t. The paper picks t
// before crawling, so threshold sweeps that must respect the crawl budget
// (Figure 2's estimator) use one run per t rather than slicing a single
// max-window run.
func (l *Lab) RunThreshold(sc Scenario, v RunVariant, maxThreshold int) (*core.Result, error) {
	l.mu.Lock()
	workers, faultRate, transport, tel := l.workers, l.faultRate, l.transport, l.telemetry
	l.mu.Unlock()
	key := fmt.Sprintf("%s/%d/%d/%d/w%d/f%g/%s/tel%t", sc.Label, sc.Seed, v, maxThreshold, workers, faultRate, transport, tel)
	l.mu.Lock()
	if r, ok := l.runs[key]; ok {
		l.mu.Unlock()
		return r, nil
	}
	l.mu.Unlock()

	c, err := l.env(sc)
	if err != nil {
		return nil, err
	}
	p := v.params(sc)
	p.MaxThreshold = maxThreshold
	p.SchoolName = c.world.Schools[0].Name
	p.Workers = workers
	if faultRate > 0 {
		// Transient faults ride out the retry budget; keep a generous
		// allowance for anything that fails for good anyway.
		p.FailureBudget = 1 << 20
	}
	res, err := core.Run(crawler.NewSession(l.attackClient(c)), p)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.runs[key] = res
	l.mu.Unlock()
	return res, nil
}
