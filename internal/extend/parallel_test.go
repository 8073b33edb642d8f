package extend

import (
	"context"
	"reflect"
	"testing"

	"hsprofiler/internal/crawler"
	"hsprofiler/internal/osn"
)

// TestBuildParallelMatchesSequential: the fixture's width-1 dossier and a
// width-8 build must agree — fetch width is a pure wall-clock optimisation,
// with no dependence on batch interleaving.
func TestBuildParallelMatchesSequential(t *testing.T) {
	f := buildFixture(t)
	fetcher := crawler.NewFetcher(f.sess.Client(), 8)
	par, err := BuildParallel(context.Background(), fetcher, f.sel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par.PublicFriends, f.dossier.PublicFriends) {
		t.Error("PublicFriends diverged from sequential build")
	}
	if !reflect.DeepEqual(par.RecoveredFriends, f.dossier.RecoveredFriends) {
		t.Error("RecoveredFriends diverged from sequential build")
	}
	if !reflect.DeepEqual(par.FriendNames, f.dossier.FriendNames) {
		t.Error("FriendNames diverged from sequential build")
	}
	if len(par.Profiles) != len(f.dossier.Profiles) {
		t.Errorf("profiles: %d vs %d", len(par.Profiles), len(f.dossier.Profiles))
	}
	for id, pp := range f.dossier.Profiles {
		got := par.Profiles[id]
		if got == nil || got.ID != pp.ID || got.FriendListVisible != pp.FriendListVisible {
			t.Errorf("profile %s diverged", id)
		}
	}
}

// failingClient makes one profile permanently unfetchable, standing in for
// an item a tolerant fetcher absorbs into a nil slot.
type failingClient struct {
	crawler.Client
	fail osn.PublicID
}

func (c failingClient) Profile(acct int, id osn.PublicID) (*osn.PublicProfile, error) {
	if id == c.fail {
		return nil, osn.ErrNotFound
	}
	return c.Client.Profile(acct, id)
}

// TestBuildParallelTolerantDegrades: with Tolerance > 0 a failed profile
// yields a nil entry from the fetcher; BuildParallel must skip it item-wise
// (like the sequential path's failure budget) instead of panicking.
func TestBuildParallelTolerantDegrades(t *testing.T) {
	f := buildFixture(t)
	if len(f.sel) < 2 {
		t.Skip("selection too small")
	}
	bad := f.sel[0].ID
	fetcher := crawler.NewFetcher(failingClient{Client: f.sess.Client(), fail: bad}, 4)
	fetcher.Tolerance = 1
	d, err := BuildParallel(context.Background(), fetcher, f.sel)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Profiles[bad]; ok {
		t.Fatal("absorbed item must not appear in the dossier")
	}
	for _, s := range f.sel[1:] {
		if d.Profiles[s.ID] == nil {
			t.Fatalf("healthy profile %s missing from dossier", s.ID)
		}
	}
}
