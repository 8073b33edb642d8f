// Package crawler provides the third party's data-collection machinery:
// a platform-access interface implemented both in-process and over HTTP,
// fake-account rotation, suspension handling, and the request-effort
// accounting behind the paper's Table 3.
package crawler

import (
	"context"
	"errors"

	"hsprofiler/internal/obs"
	"hsprofiler/internal/obs/evlog"
	"hsprofiler/internal/osn"
)

// IsTransient reports whether an error is worth retrying. Platform-semantic
// verdicts (suspension, hidden lists, missing users, bad credentials) and
// context cancellation are final; everything else — throttling, injected
// 5xx, connection resets, malformed pages, timeouts — is assumed to be a
// property of the attempt rather than the request, which is how a
// production crawler must treat an adversarial platform.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	for _, permanent := range []error{
		osn.ErrSuspended, osn.ErrHidden, osn.ErrNotFound, osn.ErrNoSchool,
		osn.ErrUnauthorized, osn.ErrUnderage,
		context.Canceled, context.DeadlineExceeded,
	} {
		if errors.Is(err, permanent) {
			return false
		}
	}
	return true
}

// Request categories live in metrics.go: the category type selects both
// the Effort field and the obs counter label, keeping the struct tallies
// and the exported metrics in lockstep.

// Client is the stranger-visible platform surface available to a third
// party: school lookup, Find-Friends search, public profile pages, and
// paginated friend lists — nothing else. osnhttp.Client implements it over
// HTTP; Direct implements it in-process.
type Client interface {
	// Accounts reports the number of fake accounts available.
	Accounts() int
	// LookupSchool resolves a school by its public name.
	LookupSchool(name string) (osn.SchoolRef, error)
	// Search returns one page of school-search results as seen by account
	// acct.
	Search(acct, schoolID, page int) ([]osn.SearchResult, bool, error)
	// Profile fetches a public profile.
	Profile(acct int, id osn.PublicID) (*osn.PublicProfile, error)
	// FriendPage fetches one page of a friend list (osn.ErrHidden if the
	// list is not stranger-visible).
	FriendPage(acct int, id osn.PublicID, page int) ([]osn.FriendRef, bool, error)
}

// Effort tallies requests by category, mirroring the three components of
// the paper's measurement-effort model A·R + |S| + |C|·f/p.
type Effort struct {
	// SeedRequests counts search-page fetches (the A·R term).
	SeedRequests int
	// ProfileRequests counts profile-page fetches (the |S| term, plus the
	// extra (1+ε)t pages of the enhanced methodology).
	ProfileRequests int
	// FriendListRequests counts friend-list page fetches (the |C|·f/p term).
	FriendListRequests int
}

// Total is the total number of requests issued.
func (e Effort) Total() int {
	return e.SeedRequests + e.ProfileRequests + e.FriendListRequests
}

// Add accumulates another tally.
func (e Effort) Add(o Effort) Effort {
	return Effort{
		SeedRequests:       e.SeedRequests + o.SeedRequests,
		ProfileRequests:    e.ProfileRequests + o.ProfileRequests,
		FriendListRequests: e.FriendListRequests + o.FriendListRequests,
	}
}

// Sub returns the tally minus o — the effort spent between two snapshots
// of a monotone tally.
func (e Effort) Sub(o Effort) Effort {
	return Effort{
		SeedRequests:       e.SeedRequests - o.SeedRequests,
		ProfileRequests:    e.ProfileRequests - o.ProfileRequests,
		FriendListRequests: e.FriendListRequests - o.FriendListRequests,
	}
}

// Session is the object the attack methodology drives: it keeps the fake-
// account pool, the event logger, the context consulted between attempts
// and the swappable client, and it fetches through a width-1 Fetcher it
// owns. That fetcher is the only retry, timeout and accounting path; the
// session's Effort, Retries and Failures are its tallies. Not safe for
// concurrent use.
type Session struct {
	f   *Fetcher
	ctx context.Context
}

// NewSession wraps a client. Its fetcher allows 12 transient retries per
// request; tune it, and every fetcher later derived from the session,
// through Base.
func NewSession(c Client) *Session {
	f := NewFetcher(c, 1)
	f.MaxRetries = 12
	return &Session{f: f, ctx: context.Background()}
}

// Base returns the session's own width-1 fetcher: the retry budget,
// backoff, timeout and tolerance set on it apply to the session's fetches
// and are inherited by every fetcher derived through Fetcher.
func (s *Session) Base() *Fetcher { return s.f }

// Effort is the session's running request tally. It counts logical
// requests (the paper's Table 3 semantics); extra attempts spent riding
// out throttles and transient failures are tallied in Retries instead.
func (s *Session) Effort() Effort { return s.f.Logical() }

// Retries counts extra attempts after throttled or transient failures, by
// request category.
func (s *Session) Retries() Effort { return s.f.Retries() }

// Failures counts requests that failed for good: transient errors that
// exhausted the retry budget, or unexpected permanent errors (suspensions
// and hidden lists are expected outcomes, not failures).
func (s *Session) Failures() Effort { return s.f.Failures() }

// Instrument publishes the session's effort accounting to the registry
// (see Fetcher.Instrument). A nil registry leaves the session
// uninstrumented (no-op). Returns the session for chaining.
func (s *Session) Instrument(reg *obs.Registry) *Session {
	s.f.Instrument(reg)
	return s
}

// WithContext sets the context consulted between attempts: once it is
// cancelled, the session's fetch methods return its error instead of
// issuing further requests. Events the session logs carry this context's
// trace span, so per-step contexts correlate crawl events to their
// methodology phase. It returns the session for chaining.
func (s *Session) WithContext(ctx context.Context) *Session {
	if ctx == nil {
		ctx = context.Background()
	}
	s.ctx = ctx
	return s
}

// WithLog attaches an event logger (see Fetcher.WithLog). A nil logger
// keeps the session silent. Returns the session for chaining.
func (s *Session) WithLog(lg *evlog.Logger) *Session {
	s.f.WithLog(lg)
	return s
}

// Log returns the session's event logger (nil if none) so higher layers
// driving the session — the run orchestration — can log into the same
// stream.
func (s *Session) Log() *evlog.Logger { return s.f.lg }

// Client returns the underlying client.
func (s *Session) Client() Client { return s.f.client }

// SwapClient replaces the session's client, returning the previous one, so
// callers can layer a decorator — a memoizing fetch cache, a latency model —
// for the duration of a run and restore the original afterwards. Effort
// accounting is unaffected: the session counts logical requests above the
// client. Like the session itself, not safe for concurrent use.
func (s *Session) SwapClient(c Client) Client {
	old := s.f.client
	if c != nil {
		s.f.client = c
	}
	return old
}

// MetricsRegistry returns the registry the session was instrumented with
// (nil when uninstrumented), so components derived from the session —
// fetchers, fetch caches — can publish to the same exposition.
func (s *Session) MetricsRegistry() *obs.Registry {
	if s.f.m == nil {
		return nil
	}
	return s.f.m.reg
}

// Fetcher derives a fetcher of the given width over the given client, or
// the session's own when c is nil. It inherits all of the session
// fetcher's tuning, metrics and event logger, and shares the session's
// account pool — rotation cursor and suspended accounts — but keeps its
// own tallies.
func (s *Session) Fetcher(c Client, workers int) *Fetcher {
	if c == nil {
		c = s.f.client
	}
	b := s.f
	f := NewFetcher(c, workers)
	f.MaxRetries, f.BaseDelay, f.MaxDelay = b.MaxRetries, b.BaseDelay, b.MaxDelay
	f.JitterSeed, f.Sleep, f.Timeout, f.Tolerance = b.JitterSeed, b.Sleep, b.Timeout, b.Tolerance
	f.pool, f.m, f.lg = b.pool, b.m, b.lg
	return f
}

// FetchCaching marks clients that already memoize profile and friend-list
// fetches (the crawler/cache package's Cache, store.CachedClient), so
// layers that would otherwise add a run-local cache — core.RunContext —
// know not to stack a second one.
type FetchCaching interface {
	CachesFetches()
}

// LookupSchool resolves the target school, retrying transient failures.
func (s *Session) LookupSchool(name string) (osn.SchoolRef, error) {
	return s.f.LookupSchool(s.ctx, name)
}

// CollectSeeds runs the school search on each of the given accounts,
// scrolling every account's results to exhaustion, and returns the deduped
// union — the paper's seed set S. Each page fetch counts one seed request.
func (s *Session) CollectSeeds(schoolID int, accounts []int) ([]osn.SearchResult, error) {
	return s.f.CollectSeeds(s.ctx, schoolID, accounts)
}

// AllAccounts returns [0..n) for the client's account pool.
func (s *Session) AllAccounts() []int {
	n := s.f.client.Accounts()
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// FetchProfile downloads one public profile, rotating accounts on
// suspension.
func (s *Session) FetchProfile(id osn.PublicID) (*osn.PublicProfile, error) {
	return s.f.FetchProfile(s.ctx, id)
}

// FetchFriends downloads a user's complete friend list across all pages.
// It returns osn.ErrHidden unwrapped if the list is not stranger-visible so
// callers can branch on it.
func (s *Session) FetchFriends(id osn.PublicID) ([]osn.FriendRef, error) {
	return s.f.FetchFriends(s.ctx, id)
}
