package crawler

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hsprofiler/internal/obs"
	"hsprofiler/internal/obs/evlog"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/sim"
)

// ErrTimeout is returned (wrapped) when one client call exceeds the
// fetcher's per-request Timeout. It is transient: the fetcher retries it
// like any other flaky-transport failure.
var ErrTimeout = errors.New("crawler: request timed out")

// Fetcher is the crawler's only fetch path: it downloads search pages,
// profiles and friend lists over a Client with account rotation, at a
// width of one or more concurrent fetches. The study's crawler was
// sequential with sleeps (politeness against the live platform); width 1
// is that crawl, and a Session drives one. Wider fetchers compress the
// same crawl wall-clock-wise with identical results. It is safe for
// concurrent use and keeps its own effort tally.
//
// The fetcher is hardened for hostile transports: each request gets an
// optional per-call timeout, transient failures (throttles, 5xx, resets,
// malformed pages, timeouts) are retried up to MaxRetries times with
// exponential backoff and deterministic jitter, and batch calls tolerate a
// configurable number of per-item failures instead of aborting on the
// first one. Tune the exported fields before the first batch call.
type Fetcher struct {
	client  Client
	workers int

	// MaxRetries bounds transient retries per request (0 = default 8;
	// negative = no retries).
	MaxRetries int
	// BaseDelay and MaxDelay shape the exponential backoff between
	// transient retries (defaults 2ms and 250ms). The delay for attempt k
	// is min(BaseDelay<<k, MaxDelay) scaled by a deterministic jitter in
	// [0.5, 1.0) drawn from JitterSeed and the request key, so two runs
	// back off identically while concurrent workers stay decorrelated.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// JitterSeed seeds the backoff jitter.
	JitterSeed uint64
	// Sleep performs the backoff pause; tests replace it to run at full
	// speed. Nil means time.Sleep.
	Sleep func(time.Duration)
	// Timeout bounds each client call (0 = unbounded). A call that
	// overruns is abandoned on its goroutine and retried; the abandoned
	// call's result is discarded. With no timeout and a context that
	// cannot be cancelled, calls run inline on the caller's goroutine.
	Timeout time.Duration
	// Tolerance is how many per-item failures one batch call absorbs
	// before giving up. Failed items keep their zero-valued result slot
	// and are tallied in Failures; exceeding the tolerance aborts the
	// batch with every collected item error joined. 0 (the default)
	// preserves the strict abort-on-first-error behavior.
	Tolerance int

	mu       sync.Mutex
	effort   Effort
	logical  Effort
	retries  Effort
	failures Effort
	pool     *accountPool
	m        *crawlMetrics
	lg       *evlog.Logger
}

// accountPool is the fake-account rotation a session shares with every
// fetcher derived from it: a round-robin cursor and the accounts known to
// be suspended, so a credential one crawl stage burned is skipped by the
// next.
type accountPool struct {
	mu        sync.Mutex
	next      int
	suspended map[int]bool
}

// take picks a non-suspended account of n round-robin.
func (p *accountPool) take(n int) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := 0; i < n; i++ {
		a := (p.next + i) % n
		if !p.suspended[a] {
			p.next = (a + 1) % n
			return a, nil
		}
	}
	return 0, fmt.Errorf("crawler: all %d accounts suspended", n)
}

func (p *accountPool) suspend(acct int) {
	p.mu.Lock()
	p.suspended[acct] = true
	p.mu.Unlock()
}

func (p *accountPool) isSuspended(acct int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.suspended[acct]
}

// NewFetcher wraps a client with a worker pool of the given size (minimum 1).
func NewFetcher(c Client, workers int) *Fetcher {
	if workers < 1 {
		workers = 1
	}
	return &Fetcher{client: c, workers: workers, pool: &accountPool{suspended: make(map[int]bool)}}
}

// Workers reports the pool size.
func (f *Fetcher) Workers() int { return f.workers }

// Instrument publishes the fetcher's accounting to the registry:
// crawl_requests_total (logical requests, matching Logical),
// crawl_retries_total, crawl_failures_total, crawl_request_seconds,
// crawl_backoff_seconds_total, and the crawl_queue_depth gauge tracking
// batch items fed to the pool and not yet completed. A nil registry is a
// no-op. Returns the fetcher for chaining.
func (f *Fetcher) Instrument(reg *obs.Registry) *Fetcher {
	f.m = newCrawlMetrics(reg)
	return f
}

// WithLog attaches an event logger: each completed logical request emits a
// "crawl" info event carrying its key, attempt count and latency (the event
// stream runreport mines for the slowest requests), with warn/error events
// for retries, suspensions and exhausted retry budgets. Events carry the
// per-request span when the batch context holds a trace. A nil logger keeps
// the fetcher silent. Returns the fetcher for chaining.
func (f *Fetcher) WithLog(lg *evlog.Logger) *Fetcher {
	f.lg = lg
	return f
}

// Effort returns the tally of every attempt actually issued, retries
// included. Logical is the paper's Table 3 count.
func (f *Fetcher) Effort() Effort {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.effort
}

// Logical returns the request tally under the paper's Table 3 semantics:
// one count per page or profile fetched (plus one per account rotation
// after a suspension), with transient retries tallied separately in
// Retries. The same crawl reports the same Logical tally at any width.
func (f *Fetcher) Logical() Effort {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.logical
}

// Retries returns the per-category tally of extra attempts spent on
// transient failures.
func (f *Fetcher) Retries() Effort {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.retries
}

// Failures returns the per-category tally of requests that failed for good.
func (f *Fetcher) Failures() Effort {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failures
}

func (f *Fetcher) maxRetries() int {
	switch {
	case f.MaxRetries == 0:
		return 8
	case f.MaxRetries < 0:
		return 0
	default:
		return f.MaxRetries
	}
}

func (f *Fetcher) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if f.Sleep != nil {
		f.Sleep(d)
		return
	}
	time.Sleep(d)
}

// backoffDelay computes the attempt's backoff with deterministic jitter.
func (f *Fetcher) backoffDelay(key string, attempt int) time.Duration {
	base := f.BaseDelay
	if base <= 0 {
		base = 2 * time.Millisecond
	}
	max := f.MaxDelay
	if max <= 0 {
		max = 250 * time.Millisecond
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d <<= 1
	}
	if d > max {
		d = max
	}
	jitter := sim.New(f.JitterSeed).Stream(key + "#" + strconv.Itoa(attempt)).Float64()
	return time.Duration(float64(d) * (0.5 + jitter/2))
}

// withTimeout runs fn(acct) under the per-request timeout and the batch
// context. With neither to enforce, it runs inline on the caller's
// goroutine. An overrunning call is abandoned: it finishes on its own
// goroutine with its result delivered into an orphaned attempt-local
// buffer, so a late completion can never race the retry attempt or a
// returned batch slot.
func withTimeout[T any](f *Fetcher, ctx context.Context, acct int, fn func(acct int) (T, error)) (T, error) {
	if f.Timeout <= 0 && ctx.Done() == nil {
		return fn(acct)
	}
	type outcome struct {
		v   T
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		v, err := fn(acct)
		done <- outcome{v: v, err: err}
	}()
	var timeout <-chan time.Time
	if f.Timeout > 0 {
		timer := time.NewTimer(f.Timeout)
		defer timer.Stop()
		timeout = timer.C
	}
	var zero T
	select {
	case o := <-done:
		return o.v, o.err
	case <-timeout:
		return zero, fmt.Errorf("%w after %v", ErrTimeout, f.Timeout)
	case <-ctx.Done():
		return zero, ctx.Err()
	}
}

// page carries one paginated client response through call, keeping the
// results and the has-more flag attempt-local as a unit.
type page[T any] struct {
	items []T
	more  bool
}

// Account choices for callOn besides a pinned account index (>= 0).
const (
	// anyAccount rotates round-robin over the pool, moving to the next
	// account after a suspension.
	anyAccount = -1
	// noAccount marks the account-less school lookup. It is not one of
	// Table 3's requests: its retries and failures are tallied under the
	// seed category, but it counts in neither Effort nor Logical.
	noAccount = -2
)

// call issues one logical request on a round-robin account: it rotates
// accounts on suspension, counts every attempt in the effort tally, and
// retries transient failures with backoff. It returns the value of the
// attempt that actually concluded. name formats the request's key
// ("profile/<id>", ...), which names its trace span and events and seeds
// its backoff jitter; it is only called when one of those needs the key,
// so an untraced, unlogged, unretried request formats nothing. When the
// context carries a trace, each logical request gets its own span under
// the batch span. Terminal platform verdicts (ErrHidden, ErrNotFound, ...)
// are returned unwrapped for callers to branch on.
func call[T any](f *Fetcher, ctx context.Context, name func() string, c category, fn func(acct int) (T, error)) (T, error) {
	return callOn(f, ctx, name, c, anyAccount, fn)
}

// callOn is call with an account choice: anyAccount, noAccount, or a
// pinned account that never rotates — a suspension is returned to the
// caller instead, since school-search result views are per-account and
// rotating mid-walk would splice two different result sequences together.
//
// A request keeps its account through transient retries; only a
// suspension moves it on. Logical requests are counted once when the
// request is first issued and once more after each suspension rotation;
// transient retries do not re-count.
func callOn[T any](f *Fetcher, ctx context.Context, name func() string, c category, pinned int, fn func(acct int) (T, error)) (T, error) {
	var key string
	keyOf := func() string {
		if key == "" {
			key = name()
		}
		return key
	}
	spanCtx, span := ctx, (*obs.Span)(nil)
	if obs.SpanFromContext(ctx) != nil {
		spanCtx, span = obs.StartSpan(ctx, keyOf())
	}
	defer span.End()
	// The completion event carries wall time; only read the clock when a
	// logger will consume it.
	logOn := f.lg.On(evlog.Info)
	var start time.Time
	if logOn {
		start = time.Now()
	}
	var zero T
	metered := pinned != noAccount
	acct := pinned
	attempt := 0
	countLogical := true
	for {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		if acct == anyAccount {
			var err error
			if acct, err = f.pool.take(f.client.Accounts()); err != nil {
				return zero, err
			}
		}
		if metered {
			f.mu.Lock()
			*c.bucket(&f.effort)++
			if countLogical {
				*c.bucket(&f.logical)++
			}
			f.mu.Unlock()
			if countLogical {
				f.m.request(c)
			}
		}
		countLogical = false
		t0 := f.m.start()
		v, err := withTimeout(f, ctx, acct, fn)
		f.m.observe(t0)
		if err == nil {
			if logOn {
				f.lg.Info(spanCtx, "crawl", "fetched",
					evlog.Str("key", keyOf()), evlog.Str("category", c.String()),
					evlog.Int("attempts", attempt+1), evlog.Dur("ms", time.Since(start)))
			}
			return v, nil
		}
		if errors.Is(err, osn.ErrSuspended) && metered {
			// Account rotation, not a retry: the request itself is
			// fine, the credential is burned.
			f.pool.suspend(acct)
			if pinned >= 0 {
				return zero, err
			}
			f.lg.Warn(spanCtx, "crawl", "account suspended, rotating",
				evlog.Int("account", acct), evlog.Str("key", keyOf()))
			acct, countLogical = anyAccount, true
			continue
		}
		if !IsTransient(err) {
			// Platform verdicts (hidden, suspended) and cancellation are
			// outcomes, not failures.
			if !errors.Is(err, osn.ErrHidden) && !errors.Is(err, osn.ErrSuspended) &&
				!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				f.mu.Lock()
				*c.bucket(&f.failures)++
				f.mu.Unlock()
				f.m.failure(c)
				f.lg.Error(spanCtx, "crawl", "permanent failure",
					evlog.Str("key", keyOf()), evlog.Str("category", c.String()),
					evlog.Err("err", err))
			}
			return zero, err
		}
		if attempt >= f.maxRetries() {
			f.mu.Lock()
			*c.bucket(&f.failures)++
			f.mu.Unlock()
			f.m.failure(c)
			f.lg.Error(spanCtx, "crawl", "retries exhausted",
				evlog.Str("key", keyOf()), evlog.Str("category", c.String()),
				evlog.Int("attempts", attempt+1), evlog.Str("class", ErrorClass(err)),
				evlog.Err("err", err))
			return zero, err
		}
		f.mu.Lock()
		*c.bucket(&f.retries)++
		f.mu.Unlock()
		f.m.retry(c, err)
		f.lg.Warn(spanCtx, "crawl", "retry",
			evlog.Str("key", keyOf()), evlog.Str("category", c.String()),
			evlog.Str("class", ErrorClass(err)), evlog.Int("attempt", attempt+1),
			evlog.Err("err", err))
		f.m.timedSleep(func() { f.sleep(f.backoffDelay(keyOf(), attempt)) })
		attempt++
	}
}

// forEach runs fn(i) for every index over the worker pool. Per-item errors
// are all collected (none silently dropped); once more than Tolerance items
// have failed, the remaining work is cancelled and every collected error is
// returned via errors.Join. Within tolerance, failed items are absorbed and
// forEach returns nil. At width 1 the items run in order on the caller's
// goroutine under the caller's context, so no goroutine is started.
func (f *Fetcher) forEach(outer context.Context, n int, fn func(ctx context.Context, i int) error) error {
	var mu sync.Mutex
	var errs []error
	// Queue-depth gauge: +1 as an item is fed to the pool, -1 as its work
	// finishes. Items stranded in the channel by an abort are settled after
	// the pool drains, so the gauge always returns to its pre-batch level.
	var fed, done atomic.Int64
	defer func() {
		if f.m != nil {
			f.m.queue.Add(float64(done.Load() - fed.Load()))
		}
	}()
	queued := func() {
		if f.m != nil {
			f.m.queue.Inc()
		}
		fed.Add(1)
	}
	// run does item i and reports whether its worker must stop: on
	// cancellation, or once more than Tolerance items have failed.
	run := func(ctx context.Context, i int) bool {
		err := fn(ctx, i)
		done.Add(1)
		if f.m != nil {
			f.m.queue.Dec()
		}
		if err == nil {
			return false
		}
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			// Cancellation noise from a sibling's abort or the caller's
			// context, not an item failure.
			return true
		}
		mu.Lock()
		defer mu.Unlock()
		errs = append(errs, err)
		return len(errs) > f.Tolerance
	}
	if f.workers == 1 {
		for i := 0; i < n && outer.Err() == nil; i++ {
			queued()
			if run(outer, i) {
				break
			}
		}
	} else {
		ctx, cancel := context.WithCancel(outer)
		defer cancel()
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < f.workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					if run(ctx, i) {
						cancel()
						return
					}
				}
			}()
		}
	feed:
		for i := 0; i < n; i++ {
			queued()
			select {
			case jobs <- i:
			case <-ctx.Done():
				break feed
			}
		}
		close(jobs)
		wg.Wait()
	}
	mu.Lock()
	defer mu.Unlock()
	if len(errs) > f.Tolerance {
		return errors.Join(errs...)
	}
	// The caller's cancellation surfaces even when no item recorded it;
	// forEach's own abort path was handled above.
	if err := outer.Err(); err != nil {
		return err
	}
	return nil
}

// ForEach runs fn(i) for every index in [0, n) over the fetcher's worker
// pool — the raw bounded-concurrency engine underneath the batch helpers,
// exported so higher layers (core.RunContext's attack pipeline) can drive
// their own per-item work through the same pool, tolerance and
// cancellation semantics. See forEach for the error contract.
func (f *Fetcher) ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	return f.forEach(ctx, n, fn)
}

// LookupSchool resolves a school by its public name, retrying transient
// failures. The lookup is not a Table 3 request (see noAccount).
func (f *Fetcher) LookupSchool(ctx context.Context, name string) (osn.SchoolRef, error) {
	return callOn(f, ctx, func() string { return "school/" + name }, catSeed, noAccount, func(int) (osn.SchoolRef, error) {
		return f.client.LookupSchool(name)
	})
}

// FetchProfile downloads one public profile through the fetcher, for
// callers composing their own batches via ForEach. Terminal platform
// verdicts are returned unwrapped.
func (f *Fetcher) FetchProfile(ctx context.Context, id osn.PublicID) (*osn.PublicProfile, error) {
	return call(f, ctx, func() string { return "profile/" + string(id) }, catProfile, func(acct int) (*osn.PublicProfile, error) {
		return f.client.Profile(acct, id)
	})
}

// FetchFriends downloads one user's complete friend list across all pages:
// osn.ErrHidden is returned unwrapped if the list is not stranger-visible,
// and a visible-but-empty list yields a nil slice.
func (f *Fetcher) FetchFriends(ctx context.Context, id osn.PublicID) ([]osn.FriendRef, error) {
	var friends []osn.FriendRef
	for pg := 0; ; pg++ {
		name := func() string { return fmt.Sprintf("friends/%s/%d", id, pg) }
		res, err := call(f, ctx, name, catFriend, func(acct int) (page[osn.FriendRef], error) {
			batch, more, err := f.client.FriendPage(acct, id, pg)
			return page[osn.FriendRef]{items: batch, more: more}, err
		})
		if err != nil {
			return nil, err
		}
		friends = append(friends, res.items...)
		if !res.more {
			return friends, nil
		}
	}
}

// CollectSeeds runs the school search on every account over the worker
// pool — each walk pinned to its account and paging in order, since search
// views are per-account — and merges the per-account walks in account
// order with first-seen dedup, so the seed list is the same at any width.
// A suspension mid-walk drops that account's remaining pages; accounts
// already known suspended are skipped.
func (f *Fetcher) CollectSeeds(ctx context.Context, schoolID int, accounts []int) ([]osn.SearchResult, error) {
	ctx, span := obs.StartSpan(ctx, "collect-seeds-batch")
	defer span.End()
	perAccount := make([][]osn.SearchResult, len(accounts))
	err := f.forEach(ctx, len(accounts), func(ctx context.Context, i int) error {
		acct := accounts[i]
		if f.pool.isSuspended(acct) {
			return nil
		}
		var walk []osn.SearchResult
		for pg := 0; ; pg++ {
			name := func() string { return fmt.Sprintf("search/%d/%d/%d", acct, schoolID, pg) }
			res, err := callOn(f, ctx, name, catSeed, acct, func(acct int) (page[osn.SearchResult], error) {
				results, more, err := f.client.Search(acct, schoolID, pg)
				return page[osn.SearchResult]{items: results, more: more}, err
			})
			if errors.Is(err, osn.ErrSuspended) {
				f.lg.Warn(ctx, "crawl", "account suspended, dropping its seed walk",
					evlog.Int("account", acct), evlog.Str("category", catSeed.String()))
				break
			}
			if err != nil {
				return fmt.Errorf("crawler: seed search (account %d page %d): %w", acct, pg, err)
			}
			walk = append(walk, res.items...)
			if !res.more {
				break
			}
		}
		perAccount[i] = walk
		return nil
	})
	if err != nil {
		return nil, err
	}
	seen := make(map[osn.PublicID]bool)
	var out []osn.SearchResult
	for _, walk := range perAccount {
		for _, r := range walk {
			if !seen[r.ID] {
				seen[r.ID] = true
				out = append(out, r)
			}
		}
	}
	return out, nil
}

// Profiles fetches the public profiles of ids concurrently. The result
// slice is index-aligned with ids, so output is deterministic regardless of
// completion order. With Tolerance > 0, failed items yield nil entries.
func (f *Fetcher) Profiles(ids []osn.PublicID) ([]*osn.PublicProfile, error) {
	return f.ProfilesContext(context.Background(), ids)
}

// ProfilesContext is Profiles under a caller context; cancelling it stops
// the crawl between requests. When the context carries an obs trace, the
// batch runs under a "profiles-batch" span with per-request child spans.
func (f *Fetcher) ProfilesContext(ctx context.Context, ids []osn.PublicID) ([]*osn.PublicProfile, error) {
	ctx, span := obs.StartSpan(ctx, "profiles-batch")
	defer span.End()
	out := make([]*osn.PublicProfile, len(ids))
	err := f.forEach(ctx, len(ids), func(ctx context.Context, i int) error {
		pp, err := f.FetchProfile(ctx, ids[i])
		if err != nil {
			return fmt.Errorf("crawler: profile %s: %w", ids[i], err)
		}
		out[i] = pp // committed on the worker goroutine, never by an abandoned attempt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FriendLists fetches the complete friend lists of ids concurrently.
// Hidden lists yield a nil entry (not an error), mirroring how the attack
// treats them. The result is index-aligned with ids. With Tolerance > 0,
// failed items also yield nil entries; consult Failures to tell them apart.
func (f *Fetcher) FriendLists(ids []osn.PublicID) ([][]osn.FriendRef, error) {
	return f.FriendListsContext(context.Background(), ids)
}

// FriendListsContext is FriendLists under a caller context. When the
// context carries an obs trace, the batch runs under a
// "friendlists-batch" span with per-request child spans.
func (f *Fetcher) FriendListsContext(ctx context.Context, ids []osn.PublicID) ([][]osn.FriendRef, error) {
	ctx, span := obs.StartSpan(ctx, "friendlists-batch")
	defer span.End()
	out := make([][]osn.FriendRef, len(ids))
	err := f.forEach(ctx, len(ids), func(ctx context.Context, i int) error {
		friends, err := f.FetchFriends(ctx, ids[i])
		if errors.Is(err, osn.ErrHidden) {
			return nil // nil entry
		}
		if err != nil {
			return fmt.Errorf("crawler: friends of %s: %w", ids[i], err)
		}
		if friends == nil {
			// Distinguish "visible but empty" from "hidden" in the batch
			// result (FetchFriends itself returns nil).
			friends = []osn.FriendRef{}
		}
		out[i] = friends // committed on the worker goroutine, never by an abandoned attempt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
