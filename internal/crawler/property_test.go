package crawler

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hsprofiler/internal/osn"
	"hsprofiler/internal/sim"
)

// scriptClient is a scripted Client for fetcher invariants: it decides
// per-id transient-failure schedules and per-account suspension points, and
// records every call it serves so tests can compare the fetcher's
// accounting against ground truth.
type scriptClient struct {
	accounts        int
	transientBefore map[osn.PublicID]int // id → failures before first success
	permanent       map[osn.PublicID]error
	suspendAfter    map[int]int // acct → calls served before suspension
	friends         map[osn.PublicID][][]osn.FriendRef
	block           map[osn.PublicID]chan struct{} // first call blocks until closed

	mu              sync.Mutex
	calls           int
	attempts        map[osn.PublicID]int
	callAccts       map[osn.PublicID][]int // id → account of every call, in order
	acctCalls       map[int]int
	suspended       map[int]bool
	suspendedServed map[int]int
	strict          bool
	violations      []string
}

func newScriptClient(accounts int) *scriptClient {
	return &scriptClient{
		accounts:        accounts,
		transientBefore: map[osn.PublicID]int{},
		permanent:       map[osn.PublicID]error{},
		suspendAfter:    map[int]int{},
		friends:         map[osn.PublicID][][]osn.FriendRef{},
		block:           map[osn.PublicID]chan struct{}{},
		attempts:        map[osn.PublicID]int{},
		callAccts:       map[osn.PublicID][]int{},
		acctCalls:       map[int]int{},
		suspended:       map[int]bool{},
		suspendedServed: map[int]int{},
	}
}

func (m *scriptClient) Accounts() int { return m.accounts }

func (m *scriptClient) LookupSchool(string) (osn.SchoolRef, error) {
	return osn.SchoolRef{}, osn.ErrNoSchool
}

func (m *scriptClient) Search(int, int, int) ([]osn.SearchResult, bool, error) {
	return nil, false, nil
}

// serve runs the bookkeeping shared by Profile and FriendPage and reports
// the scripted error for this call, or nil when the call should succeed.
func (m *scriptClient) serve(acct int, id osn.PublicID) error {
	if ch, ok := func() (chan struct{}, bool) {
		m.mu.Lock()
		defer m.mu.Unlock()
		ch, ok := m.block[id]
		if ok {
			delete(m.block, id)
		}
		return ch, ok
	}(); ok {
		<-ch
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls++
	m.callAccts[id] = append(m.callAccts[id], acct)
	m.acctCalls[acct]++
	if m.suspended[acct] {
		m.suspendedServed[acct]++
		if m.strict {
			m.violations = append(m.violations,
				fmt.Sprintf("request for %s on account %d after suspension", id, acct))
		}
		return osn.ErrSuspended
	}
	if after, ok := m.suspendAfter[acct]; ok && m.acctCalls[acct] > after {
		m.suspended[acct] = true
		m.suspendedServed[acct]++
		return osn.ErrSuspended
	}
	if err, ok := m.permanent[id]; ok {
		return err
	}
	m.attempts[id]++
	if m.attempts[id] <= m.transientBefore[id] {
		if m.attempts[id]%2 == 0 {
			return osn.ErrThrottled
		}
		return errors.New("scripted transient failure")
	}
	return nil
}

func (m *scriptClient) Profile(acct int, id osn.PublicID) (*osn.PublicProfile, error) {
	if err := m.serve(acct, id); err != nil {
		return nil, err
	}
	return &osn.PublicProfile{ID: id, Name: "p-" + string(id)}, nil
}

func (m *scriptClient) FriendPage(acct int, id osn.PublicID, page int) ([]osn.FriendRef, bool, error) {
	if err := m.serve(acct, id); err != nil {
		return nil, false, err
	}
	pages, ok := m.friends[id]
	if !ok {
		return nil, false, osn.ErrHidden
	}
	if page >= len(pages) {
		return nil, false, nil
	}
	return pages[page], page < len(pages)-1, nil
}

func (m *scriptClient) totalCalls() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.calls
}

func instantFetcher(c Client, workers int) *Fetcher {
	f := NewFetcher(c, workers)
	f.Sleep = func(time.Duration) {}
	return f
}

// TestFetcherPropertyAlignmentAndEffort drives randomized trials of the two
// central invariants: results stay index-aligned with the input ids under
// concurrency and scripted transient failures, and the fetcher's effort
// tally equals the number of requests the client actually served,
// retries included.
func TestFetcherPropertyAlignmentAndEffort(t *testing.T) {
	rng := sim.New(42).Stream("fetcher-props")
	for trial := 0; trial < 30; trial++ {
		workers := 1 + rng.Intn(8)
		n := 1 + rng.Intn(60)
		m := newScriptClient(1 + rng.Intn(4))
		ids := make([]osn.PublicID, n)
		wantExtra := 0
		for i := range ids {
			ids[i] = osn.PublicID(fmt.Sprintf("u%d", i))
			if rng.Bool(0.4) {
				k := 1 + rng.Intn(3)
				m.transientBefore[ids[i]] = k
				wantExtra += k
			}
		}
		f := instantFetcher(m, workers)
		profiles, err := f.Profiles(ids)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, pp := range profiles {
			if pp == nil || pp.ID != ids[i] {
				t.Fatalf("trial %d: slot %d misaligned: %v", trial, i, pp)
			}
		}
		if got, want := f.Effort().ProfileRequests, m.totalCalls(); got != want {
			t.Fatalf("trial %d: effort %d, client served %d", trial, got, want)
		}
		if got, want := f.Effort().ProfileRequests, n+wantExtra; got != want {
			t.Fatalf("trial %d: effort %d, want %d issued incl. retries", trial, got, want)
		}
		if got := f.Retries().ProfileRequests; got != wantExtra {
			t.Fatalf("trial %d: retries %d, want %d", trial, got, wantExtra)
		}
	}
}

// TestFetcherRetryKeepsAccount: a transient failure is a property of the
// attempt, not the credential, so its retry goes to the same account; only
// a suspension rotates. Checked at width 1 (the session's path) and 4.
func TestFetcherRetryKeepsAccount(t *testing.T) {
	for _, workers := range []int{1, 4} {
		m := newScriptClient(3)
		var ids []osn.PublicID
		for i := 0; i < 12; i++ {
			id := osn.PublicID(fmt.Sprintf("u%d", i))
			m.transientBefore[id] = 1 + i%2
			ids = append(ids, id)
		}
		if _, err := instantFetcher(m, workers).Profiles(ids); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, id := range ids {
			accts := m.callAccts[id]
			if len(accts) != 1+m.transientBefore[id] {
				t.Fatalf("workers=%d: %s took %d calls, want %d", workers, id, len(accts), 1+m.transientBefore[id])
			}
			for _, a := range accts[1:] {
				if a != accts[0] {
					t.Fatalf("workers=%d: %s retried across accounts %v", workers, id, accts)
				}
			}
		}
	}
}

// goroutineID parses the calling goroutine's id from its stack header
// ("goroutine 18 [running]: ...").
func goroutineID() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// goroutineClient records the goroutine every Profile call runs on.
type goroutineClient struct {
	*scriptClient
	mu   sync.Mutex
	gids []string
}

func (c *goroutineClient) Profile(acct int, id osn.PublicID) (*osn.PublicProfile, error) {
	c.mu.Lock()
	c.gids = append(c.gids, goroutineID())
	c.mu.Unlock()
	return c.scriptClient.Profile(acct, id)
}

// TestWidthOneRunsInline: at width 1, with a context that cannot be
// cancelled and no timeout, every client call — through the session and
// through a width-1 batch — runs on the caller's goroutine, so the
// sequential crawl starts no goroutine per call. A timeout needs one.
func TestWidthOneRunsInline(t *testing.T) {
	c := &goroutineClient{scriptClient: newScriptClient(2)}
	self := goroutineID()
	s := NewSession(c)
	if _, err := s.FetchProfile("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fetcher(nil, 1).ProfilesContext(context.Background(), []osn.PublicID{"b", "c"}); err != nil {
		t.Fatal(err)
	}
	if len(c.gids) != 3 {
		t.Fatalf("%d calls recorded, want 3", len(c.gids))
	}
	for i, g := range c.gids {
		if g != self {
			t.Fatalf("call %d ran on goroutine %s, caller is %s", i, g, self)
		}
	}
	s.Base().Timeout = time.Minute
	if _, err := s.FetchProfile("d"); err != nil {
		t.Fatal(err)
	}
	if g := c.gids[3]; g == self {
		t.Fatal("a call under a timeout ran on the caller's goroutine; the check cannot tell the paths apart")
	}
}

// TestFetcherPropertyFriendListsAligned checks index alignment and page
// reassembly for concurrent friend-list fetches with scripted flakiness.
func TestFetcherPropertyFriendListsAligned(t *testing.T) {
	rng := sim.New(7).Stream("friendlist-props")
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.Intn(40)
		m := newScriptClient(1 + rng.Intn(3))
		ids := make([]osn.PublicID, n)
		want := make(map[osn.PublicID]int)
		for i := range ids {
			ids[i] = osn.PublicID(fmt.Sprintf("u%d", i))
			if rng.Bool(0.25) {
				continue // hidden list
			}
			pages := make([][]osn.FriendRef, 1+rng.Intn(4))
			total := 0
			for p := range pages {
				row := make([]osn.FriendRef, rng.Intn(5))
				for j := range row {
					row[j] = osn.FriendRef{ID: osn.PublicID(fmt.Sprintf("f%d-%d", total, i))}
					total++
				}
				pages[p] = row
			}
			m.friends[ids[i]] = pages
			want[ids[i]] = total
			if rng.Bool(0.3) {
				m.transientBefore[ids[i]] = 1 + rng.Intn(2)
			}
		}
		f := instantFetcher(m, 1+rng.Intn(6))
		lists, err := f.FriendLists(ids)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range ids {
			total, visible := want[ids[i]]
			if !visible {
				if lists[i] != nil {
					t.Fatalf("trial %d: hidden list %s not nil", trial, ids[i])
				}
				continue
			}
			if lists[i] == nil || len(lists[i]) != total {
				t.Fatalf("trial %d: list %s has %d entries, want %d", trial, ids[i], len(lists[i]), total)
			}
		}
		if got, want := f.Effort().FriendListRequests, m.totalCalls(); got != want {
			t.Fatalf("trial %d: effort %d, client served %d", trial, got, want)
		}
	}
}

// TestFetcherNeverUsesSuspendedAccountSequential is the strict form of the
// suspension invariant: with one worker there is no discovery race, so
// after an account's first ErrSuspended response the fetcher must never
// touch it again.
func TestFetcherNeverUsesSuspendedAccountSequential(t *testing.T) {
	m := newScriptClient(4)
	m.strict = true
	m.suspendAfter[0] = 3
	m.suspendAfter[2] = 5
	var ids []osn.PublicID
	for i := 0; i < 50; i++ {
		ids = append(ids, osn.PublicID(fmt.Sprintf("u%d", i)))
	}
	f := instantFetcher(m, 1)
	if _, err := f.Profiles(ids); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, v := range m.violations {
		t.Error(v)
	}
	for acct, served := range m.suspendedServed {
		if served > 1 {
			t.Errorf("account %d served %d suspended responses sequentially", acct, served)
		}
	}
}

// TestFetcherSuspendedAccountBoundConcurrent bounds the same invariant
// under concurrency: an account's suspension can be discovered by at most
// `workers` in-flight requests before the shared mark stops further use.
func TestFetcherSuspendedAccountBoundConcurrent(t *testing.T) {
	const workers = 6
	m := newScriptClient(3)
	m.suspendAfter[1] = 2
	var ids []osn.PublicID
	for i := 0; i < 120; i++ {
		ids = append(ids, osn.PublicID(fmt.Sprintf("u%d", i)))
	}
	f := instantFetcher(m, workers)
	if _, err := f.Profiles(ids); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if served := m.suspendedServed[1]; served > workers {
		t.Fatalf("suspended account served %d requests, in-flight bound is %d", served, workers)
	}
}

// TestFetcherJoinsAllWorkerErrors locks in the forEach fix: when a batch
// aborts, every collected item error appears in the joined result instead
// of only the first buffered one.
func TestFetcherJoinsAllWorkerErrors(t *testing.T) {
	m := newScriptClient(2)
	var ids []osn.PublicID
	for i := 0; i < 6; i++ {
		id := osn.PublicID(fmt.Sprintf("bad%d", i))
		m.permanent[id] = osn.ErrNotFound
		ids = append(ids, id)
	}
	f := instantFetcher(m, 4)
	f.Tolerance = 2
	_, err := f.Profiles(ids)
	if err == nil {
		t.Fatal("expected joined failure beyond tolerance")
	}
	if got := strings.Count(err.Error(), "crawler: profile bad"); got < 3 {
		t.Fatalf("joined error carries %d item errors, want at least Tolerance+1 = 3:\n%v", got, err)
	}
}

// TestFetcherToleranceAbsorbsFailures: failures within tolerance yield nil
// slots and a nil error, with the failure tally carrying the count.
func TestFetcherToleranceAbsorbsFailures(t *testing.T) {
	m := newScriptClient(2)
	ids := []osn.PublicID{"a", "bad", "c"}
	m.permanent["bad"] = osn.ErrNotFound
	f := instantFetcher(m, 2)
	f.Tolerance = 1
	profiles, err := f.Profiles(ids)
	if err != nil {
		t.Fatal(err)
	}
	if profiles[0] == nil || profiles[2] == nil {
		t.Fatal("healthy slots missing")
	}
	if profiles[1] != nil {
		t.Fatal("failed slot not nil")
	}
}

// TestFetcherTimeoutRetries: a call that hangs past the per-request timeout
// is abandoned and retried; the retry succeeds.
func TestFetcherTimeoutRetries(t *testing.T) {
	m := newScriptClient(2)
	release := make(chan struct{})
	defer close(release)
	m.block["slow"] = release
	f := instantFetcher(m, 2)
	f.Timeout = 20 * time.Millisecond
	profiles, err := f.Profiles([]osn.PublicID{"slow", "fast"})
	if err != nil {
		t.Fatal(err)
	}
	if profiles[0] == nil || profiles[0].ID != "slow" {
		t.Fatalf("slow slot: %v", profiles[0])
	}
	if f.Retries().ProfileRequests == 0 {
		t.Fatal("timeout retry not tallied")
	}
}

// TestSessionTimeoutRetries: a session call that hangs past the per-request
// timeout is abandoned and retried; the abandoned call's late completion
// must not race the retry's result (each attempt's value travels over its
// own channel, so run this under -race).
func TestSessionTimeoutRetries(t *testing.T) {
	m := newScriptClient(2)
	release := make(chan struct{})
	m.block["slow"] = release
	s := NewSession(m)
	s.Base().Sleep = func(time.Duration) {}
	s.Base().Timeout = 20 * time.Millisecond
	pp, err := s.FetchProfile("slow")
	// Release the abandoned first attempt while the result is still live,
	// so a shared-variable write would be caught by the race detector.
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	if pp == nil || pp.ID != "slow" {
		t.Fatalf("profile = %v, want slow", pp)
	}
	if s.Retries().ProfileRequests == 0 {
		t.Fatal("timeout retry not tallied")
	}
	if s.Effort().ProfileRequests != 1 {
		t.Fatalf("effort counts %d profile requests, want 1 logical request", s.Effort().ProfileRequests)
	}
}

// TestFetcherContextCancellation: cancelling the batch context stops the
// crawl and surfaces the cancellation.
func TestFetcherContextCancellation(t *testing.T) {
	m := newScriptClient(2)
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	m.block["gate"] = release
	var ids []osn.PublicID
	ids = append(ids, "gate")
	for i := 0; i < 200; i++ {
		ids = append(ids, osn.PublicID(fmt.Sprintf("u%d", i)))
	}
	f := instantFetcher(m, 2)
	done := make(chan error, 1)
	go func() {
		_, err := f.ProfilesContext(ctx, ids)
		done <- err
	}()
	cancel()
	close(release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestBackoffJitterDeterministic: two fetchers with the same seed produce
// the same backoff schedule; different seeds diverge.
func TestBackoffJitterDeterministic(t *testing.T) {
	a := NewFetcher(newScriptClient(1), 1)
	b := NewFetcher(newScriptClient(1), 1)
	c := NewFetcher(newScriptClient(1), 1)
	a.JitterSeed, b.JitterSeed, c.JitterSeed = 1, 1, 2
	var diverged bool
	for attempt := 0; attempt < 6; attempt++ {
		da := a.backoffDelay("profile/u1", attempt)
		db := b.backoffDelay("profile/u1", attempt)
		dc := c.backoffDelay("profile/u1", attempt)
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", attempt, da, db)
		}
		if da != dc {
			diverged = true
		}
		if da <= 0 {
			t.Fatalf("attempt %d: non-positive delay %v", attempt, da)
		}
	}
	if !diverged {
		t.Fatal("different seeds never diverged")
	}
}
