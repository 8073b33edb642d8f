package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The read mix of loadgen.DefaultMix: search 1, profile 8, friends 4.
const (
	kindSearch = iota
	kindProfile
	kindFriends
)

var mixWeights = [3]int{1, 8, 4}

const reqTimeout = 2 * time.Second

// harvest is what a stranger discovers through search: every school's
// result pages and the profile ids they list. It depends only on the
// world, so one harvest serves every fresh server of a run.
type harvest struct {
	schools []int // school id per entry of pages
	pages   []int // search pages the harvesting account saw per school
	ids     []string
}

// urlPool is the set of /api/v1 reads a load pass draws from, bound to one
// server's freshly registered accounts.
type urlPool struct {
	byKind [3][]string
}

// newHTTPClient returns a client that holds at most one connection, so a
// pass with n workers uses at most n connections.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: reqTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// registerAPI registers n accounts over /api/v1/register.
func registerAPI(hc *http.Client, base string, n int) ([]string, error) {
	var toks []string
	for i := 0; i < n; i++ {
		form := url.Values{"name": {"perfbench" + strconv.Itoa(i)}, "birth": {"1985-01-01"}}
		resp, err := hc.PostForm(base+"/api/v1/register", form)
		if err != nil {
			return nil, fmt.Errorf("register: %w", err)
		}
		var body struct{ Token string }
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || body.Token == "" {
			return nil, fmt.Errorf("register: status %d: %v", resp.StatusCode, err)
		}
		toks = append(toks, body.Token)
	}
	return toks, nil
}

func getJSON(hc *http.Client, u string, v any) error {
	resp, err := hc.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body) // diagnostic only
		return fmt.Errorf("GET %s: %d %s", u, resp.StatusCode, b)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// harvestTargets pages every school's search with one account. Schools are
// addressed by id: metro worlds reuse school names.
func harvestTargets(base string) (*harvest, error) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	toks, err := registerAPI(hc, base, 1)
	if err != nil {
		return nil, err
	}
	var schools struct {
		Schools []struct{ ID int }
	}
	if err := getJSON(hc, base+"/api/v1/schools", &schools); err != nil {
		return nil, err
	}
	h := &harvest{}
	for _, s := range schools.Schools {
		pages := 0
		for p := 0; ; p++ {
			var page struct {
				Results []struct{ ID string }
				More    bool
			}
			u := fmt.Sprintf("%s/api/v1/search?school=%d&page=%d&acct=%s", base, s.ID, p, url.QueryEscape(toks[0]))
			if err := getJSON(hc, u, &page); err != nil {
				return nil, err
			}
			for _, r := range page.Results {
				h.ids = append(h.ids, r.ID)
			}
			pages = p + 1
			if !page.More || len(page.Results) == 0 {
				break
			}
		}
		h.schools = append(h.schools, s.ID)
		h.pages = append(h.pages, pages)
	}
	if len(h.ids) == 0 {
		return nil, errors.New("harvest: search listed nobody")
	}
	return h, nil
}

// bind registers one account per connection on a fresh server and builds
// the URL pool over the harvested targets.
func (h *harvest) bind(base string, conns int) (*urlPool, error) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	toks, err := registerAPI(hc, base, conns)
	if err != nil {
		return nil, err
	}
	p := &urlPool{}
	for _, t := range toks {
		esc := url.QueryEscape(t)
		for i, sid := range h.schools {
			for pg := 0; pg < h.pages[i]; pg++ {
				p.byKind[kindSearch] = append(p.byKind[kindSearch],
					fmt.Sprintf("%s/api/v1/search?school=%d&page=%d&acct=%s", base, sid, pg, esc))
			}
		}
	}
	for i, id := range h.ids {
		esc := url.QueryEscape(toks[i%len(toks)])
		p.byKind[kindProfile] = append(p.byKind[kindProfile],
			fmt.Sprintf("%s/api/v1/profile/%s?acct=%s", base, url.PathEscape(id), esc))
		p.byKind[kindFriends] = append(p.byKind[kindFriends],
			fmt.Sprintf("%s/api/v1/friends/%s?page=0&acct=%s", base, url.PathEscape(id), esc))
	}
	return p, nil
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pick resolves the i-th request of a pass from the seed alone.
func (p *urlPool) pick(seed, i uint64) (int, string) {
	h := splitmix64(seed ^ splitmix64(i))
	w := int(h % uint64(mixWeights[0]+mixWeights[1]+mixWeights[2]))
	kind := kindFriends
	switch {
	case w < mixWeights[0]:
		kind = kindSearch
	case w < mixWeights[0]+mixWeights[1]:
		kind = kindProfile
	}
	urls := p.byKind[kind]
	return kind, urls[splitmix64(h)%uint64(len(urls))]
}

// loadSpec describes one pass. Rate 0 is a closed loop, each connection
// sending its next request when the last one returns; a positive Rate is
// an open loop of Poisson arrivals. Either runs for Duration or, with
// UntilEpoch set, until the first response carrying that epoch (at most
// Duration).
type loadSpec struct {
	Conns      int
	Seed       uint64
	Rate       float64
	Duration   time.Duration
	UntilEpoch uint64
}

// loadResult is one pass's outcome. Latencies are in ms, open-loop ones
// from each arrival's due time; Late is sent minus due.
type loadResult struct {
	Lat, Late         []float64
	Attempted, Failed int
	Dropped           int
	Elapsed           time.Duration
	EpochAt           time.Duration // first response carrying UntilEpoch, from pass start
	MaxEpoch          uint64
	Problems          []string // correctness violations (bad envelopes, epochs going back)
}

func (r *loadResult) merge(o *loadResult) {
	r.Lat = append(r.Lat, o.Lat...)
	r.Late = append(r.Late, o.Late...)
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Dropped += o.Dropped
	r.Problems = append(r.Problems, o.Problems...)
}

// worker is one connection's sender with its own buffers and timer.
type worker struct {
	hc        *http.Client
	timer     *timer
	buf       bytes.Buffer
	lastEpoch uint64
	lat, late []float64
	failed    int
	problems  []string
}

var kindKey = [3]string{`"results":`, `"profile":`, `"friends":`}

// do sends one GET and checks the response. It returns whether the
// request succeeded and the epoch id the response carried.
func (w *worker) do(kind int, u string) (bool, uint64) {
	resp, err := w.hc.Get(u)
	if err != nil {
		return false, 0
	}
	w.buf.Reset()
	_, err = w.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false, 0
	}
	body := w.buf.Bytes()
	switch {
	case resp.StatusCode == http.StatusOK:
		if !json.Valid(body) || !bytes.Contains(body, []byte(kindKey[kind])) {
			w.problem("malformed %d-envelope from %s", resp.StatusCode, u)
			return false, 0
		}
		e, ok := epochOf(body)
		if !ok {
			w.problem("no epoch in response from %s", u)
			return false, 0
		}
		if e < w.lastEpoch {
			w.problem("epoch went back from %d to %d", w.lastEpoch, e)
		}
		w.lastEpoch = e
		return true, e
	case resp.StatusCode == http.StatusGone && kind == kindFriends:
		// A hidden friend list is the platform's correct answer.
		if !json.Valid(body) || !bytes.Contains(body, []byte(`"code":"hidden"`)) {
			w.problem("malformed 410-envelope from %s", u)
			return false, 0
		}
		return true, w.lastEpoch
	}
	return false, 0
}

func (w *worker) problem(format string, args ...any) {
	if len(w.problems) < 5 {
		w.problems = append(w.problems, fmt.Sprintf(format, args...))
	}
}

// epochOf reads the trailing "epoch":N member of an envelope.
func epochOf(body []byte) (uint64, bool) {
	i := bytes.LastIndex(body, []byte(`"epoch":`))
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(`"epoch":`):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, err := strconv.ParseUint(string(rest[:j]), 10, 64)
	return n, err == nil
}

// arrivals returns Poisson arrival offsets at rate per second over d.
func arrivals(seed uint64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x6f70656e6c6f6f70))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// runLoad drives one pass against pool. The open loop keeps no sender
// goroutine of its own: each of the Conns workers takes the next arrival
// in due order, sleeps until it is due if early, and otherwise sends it
// late — an arrival that finds every connection busy waits in this
// implicit queue and is still timed from its due time. Arrivals not sent
// within a grace period after the pass are counted as dropped.
func runLoad(pool *urlPool, spec loadSpec) (*loadResult, error) {
	var offs []time.Duration
	if spec.Rate > 0 {
		offs = arrivals(spec.Seed, spec.Rate, spec.Duration)
	}
	const grace = 2 * time.Second
	var (
		next    atomic.Int64
		stopAt  atomic.Int64 // open loop: arrivals due after this offset are not sent
		epochAt atomic.Int64
		maxEp   atomic.Uint64
		wg      sync.WaitGroup
	)
	stopAt.Store(math.MaxInt64)
	workers := make([]*worker, spec.Conns)
	for k := range workers {
		t, err := newTimer()
		if err != nil {
			for _, w := range workers[:k] {
				w.timer.close()
			}
			return nil, err
		}
		workers[k] = &worker{hc: newHTTPClient(), timer: t}
	}
	start := time.Now()
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer w.hc.CloseIdleConnections()
			for {
				i := next.Add(1) - 1
				due := start
				if spec.Rate > 0 {
					if int(i) >= len(offs) || int64(offs[i]) > stopAt.Load() {
						return
					}
					due = start.Add(offs[i])
					now := time.Now()
					if now.Sub(start) > spec.Duration+grace {
						return
					}
					if err := w.timer.sleep(due.Sub(now)); err != nil {
						w.problem("generator timer: %v", err)
						return
					}
				} else if time.Since(start) >= spec.Duration || stopAt.Load() != math.MaxInt64 {
					return
				}
				sent := time.Now()
				if spec.Rate == 0 {
					due = sent
				}
				kind, u := pool.pick(spec.Seed, uint64(i))
				ok, e := w.do(kind, u)
				done := time.Now()
				w.lat = append(w.lat, ms(done.Sub(due)))
				if spec.Rate > 0 {
					w.late = append(w.late, ms(sent.Sub(due)))
				}
				if !ok {
					w.failed++
				}
				for {
					m := maxEp.Load()
					if e <= m || maxEp.CompareAndSwap(m, e) {
						break
					}
				}
				if spec.UntilEpoch > 0 && e >= spec.UntilEpoch && epochAt.CompareAndSwap(0, int64(done.Sub(start))) {
					stopAt.Store(int64(done.Sub(start)))
				}
			}
		}()
	}
	wg.Wait()
	for _, w := range workers {
		w.timer.close()
	}
	r := &loadResult{Elapsed: time.Since(start), EpochAt: time.Duration(epochAt.Load()), MaxEpoch: maxEp.Load()}
	for _, w := range workers {
		r.Lat = append(r.Lat, w.lat...)
		r.Late = append(r.Late, w.late...)
		r.Failed += w.failed
		r.Problems = append(r.Problems, w.problems...)
	}
	sent := len(r.Lat)
	if spec.Rate > 0 {
		due := len(offs)
		if s := stopAt.Load(); s != math.MaxInt64 {
			due = 0
			for _, o := range offs {
				if int64(o) <= s {
					due++
				}
			}
		}
		r.Dropped = max(due-sent, 0)
		r.Attempted = max(due, sent)
	} else {
		r.Attempted = sent
	}
	r.Failed += r.Dropped
	if spec.UntilEpoch > 0 && r.EpochAt == 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("epoch %d never served (max %d)", spec.UntilEpoch, r.MaxEpoch))
	}
	return r, nil
}
