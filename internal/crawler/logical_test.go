package crawler

// Equality tests between the sequential Session and the parallel Fetcher:
// the fetcher's batch primitives must reproduce the session's outputs and
// its Table 3 effort semantics (Logical) exactly, at any worker count.

import (
	"context"
	"reflect"
	"testing"

	"hsprofiler/internal/osn"
)

// TestFetcherCollectSeedsMatchesSession: the concurrent per-account search
// walk must merge to the session's deduped seed list, and its logical
// request tally must equal the session's Effort.
func TestFetcherCollectSeedsMatchesSession(t *testing.T) {
	p := testWorldPlatform(t, osn.Config{SearchPerAccount: 20})
	d, err := NewDirect(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(d)
	want, err := sess.CollectSeeds(0, sess.AllAccounts())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		f := NewFetcher(d, workers)
		got, err := f.CollectSeeds(context.Background(), 0, sess.AllAccounts())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: %d seeds, session found %d (or order differs)", workers, len(got), len(want))
		}
		if f.Logical() != sess.Effort() {
			t.Fatalf("workers=%d: logical tally %+v, session effort %+v", workers, f.Logical(), sess.Effort())
		}
	}
}

// TestFetcherLogicalMatchesSessionEffort drives the same profile and
// friend-list workload through a Session and through a Fetcher at several
// worker counts: outputs and logical request counts must agree, while the
// fetcher's attempt-based Effort is at least the logical count.
func TestFetcherLogicalMatchesSessionEffort(t *testing.T) {
	p := testWorldPlatform(t, osn.Config{SearchPerAccount: 20})
	d, err := NewDirect(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(d)
	seeds, err := sess.CollectSeeds(0, sess.AllAccounts())
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]osn.PublicID, 0, len(seeds))
	for _, s := range seeds {
		ids = append(ids, s.ID)
	}

	wantProfiles := make([]*osn.PublicProfile, len(ids))
	wantFriends := make([][]osn.FriendRef, len(ids))
	base := sess.Effort()
	for i, id := range ids {
		pp, err := sess.FetchProfile(id)
		if err != nil {
			t.Fatal(err)
		}
		wantProfiles[i] = pp
		friends, err := sess.FetchFriends(id)
		if err != nil && err != osn.ErrHidden {
			t.Fatal(err)
		}
		wantFriends[i] = friends
	}
	wantEffort := Effort{
		ProfileRequests:    sess.Effort().ProfileRequests - base.ProfileRequests,
		FriendListRequests: sess.Effort().FriendListRequests - base.FriendListRequests,
	}

	for _, workers := range []int{1, 4, 8} {
		f := NewFetcher(d, workers)
		profiles, err := f.ProfilesContext(context.Background(), ids)
		if err != nil {
			t.Fatal(err)
		}
		friends, err := f.FriendListsContext(context.Background(), ids)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(profiles, wantProfiles) {
			t.Fatalf("workers=%d: profile batch differs from session", workers)
		}
		for i := range friends {
			// The session returns nil for hidden lists; the fetcher maps
			// hidden to a nil entry too.
			if !reflect.DeepEqual(friends[i], wantFriends[i]) {
				t.Fatalf("workers=%d: friend list %d differs from session", workers, i)
			}
		}
		if got := f.Logical(); got != wantEffort {
			t.Fatalf("workers=%d: logical %+v, session counted %+v", workers, got, wantEffort)
		}
		if eff := f.Effort(); eff.ProfileRequests < wantEffort.ProfileRequests ||
			eff.FriendListRequests < wantEffort.FriendListRequests {
			t.Fatalf("workers=%d: attempt tally %+v below logical %+v", workers, eff, wantEffort)
		}
	}
}
