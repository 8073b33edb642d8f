package socialgraph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// checkInvariantsBinarySearch is the symmetry check CheckInvariants used
// before its cursor rewrite, kept as the reference the cursor version is
// proved against: the same structural checks, plus one AreFriends binary
// search per adjacency entry, O(E log d) random access.
func (f *Frozen) checkInvariantsBinarySearch() error {
	n := len(f.present)
	if len(f.offsets) != n+1 {
		return fmt.Errorf("socialgraph: frozen offsets length %d, want %d", len(f.offsets), n+1)
	}
	if f.offsets[0] != 0 || f.offsets[n] != int64(len(f.adj)) {
		return fmt.Errorf("socialgraph: frozen offsets span [%d,%d], adj length %d", f.offsets[0], f.offsets[n], len(f.adj))
	}
	users := 0
	for u := 0; u < n; u++ {
		if f.offsets[u+1] < f.offsets[u] {
			return fmt.Errorf("socialgraph: frozen offsets decrease at %d", u)
		}
		row := f.adj[f.offsets[u]:f.offsets[u+1]]
		if len(row) > 0 && !f.present[u] {
			return fmt.Errorf("socialgraph: absent user %d has %d friends", u, len(row))
		}
		if f.present[u] {
			users++
		}
		for i, v := range row {
			if int(v) < 0 || int(v) >= n {
				return fmt.Errorf("socialgraph: frozen edge %d->%d outside ID space", u, v)
			}
			if UserID(u) == v {
				return fmt.Errorf("socialgraph: frozen self-loop at %d", u)
			}
			if i > 0 && row[i-1] >= v {
				return fmt.Errorf("socialgraph: frozen row %d not strictly ascending at %d", u, i)
			}
			if !f.AreFriends(v, UserID(u)) {
				return fmt.Errorf("socialgraph: asymmetric frozen edge %d->%d", u, v)
			}
		}
	}
	if users != f.users {
		return fmt.Errorf("socialgraph: frozen user count %d, present %d", f.users, users)
	}
	if int64(2*f.edges) != int64(len(f.adj)) {
		return fmt.Errorf("socialgraph: frozen edge count %d inconsistent with adjacency size %d", f.edges, len(f.adj))
	}
	return nil
}

// sparseGraph builds a random graph over an ID space with gaps, so absent
// IDs sit between present ones.
func sparseGraph(rng *rand.Rand) *Frozen {
	n := 2 + rng.Intn(60)
	g := New()
	var ids []UserID
	for u := 0; u < n; u++ {
		if u == n-1 || rng.Intn(5) > 0 {
			g.AddUser(UserID(u))
			ids = append(ids, UserID(u))
		}
	}
	for i := rng.Intn(4 * n); i > 0; i-- {
		a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		if a != b {
			g.AddFriendship(a, b)
		}
	}
	return g.Freeze()
}

// rowsOf copies f's adjacency out row by row.
func rowsOf(f *Frozen) [][]UserID {
	rows := make([][]UserID, f.NumIDs())
	for u := range rows {
		rows[u] = slices.Clone(f.row(UserID(u)))
	}
	return rows
}

// withRows is f with its adjacency replaced by rows; the present bitmap and
// the user and edge counts are kept.
func withRows(f *Frozen, rows [][]UserID) *Frozen {
	out := &Frozen{offsets: []int64{0}, present: f.present, users: f.users, edges: f.edges}
	for _, r := range rows {
		out.adj = append(out.adj, r...)
		out.offsets = append(out.offsets, int64(len(out.adj)))
	}
	return out
}

// absentFrom picks an ID in [0, n) that is neither u nor in row; ok is
// false when row already holds every other ID.
func absentFrom(rng *rand.Rand, n int, u UserID, row []UserID) (UserID, bool) {
	if len(row) >= n-1 {
		return 0, false
	}
	for {
		w := UserID(rng.Intn(n))
		if _, found := slices.BinarySearch(row, w); w != u && !found {
			return w, true
		}
	}
}

// insertSorted adds v to an ascending row, keeping it ascending.
func insertSorted(row []UserID, v UserID) []UserID {
	i, _ := slices.BinarySearch(row, v)
	return slices.Insert(row, i, v)
}

// deleteAt removes row[i].
func deleteAt(row []UserID, i int) []UserID { return slices.Delete(row, i, i+1) }

// corruptions each damage one row. They report false when the row gives
// them nothing to work with.
var corruptions = []struct {
	name string
	fn   func(rng *rand.Rand, n int, u UserID, row []UserID) ([]UserID, bool)
}{
	{"drop", func(rng *rand.Rand, n int, u UserID, row []UserID) ([]UserID, bool) {
		if len(row) == 0 {
			return nil, false
		}
		return deleteAt(row, rng.Intn(len(row))), true
	}},
	{"duplicate", func(rng *rand.Rand, n int, u UserID, row []UserID) ([]UserID, bool) {
		if len(row) == 0 {
			return nil, false
		}
		i := rng.Intn(len(row))
		return slices.Insert(row, i, row[i]), true
	}},
	{"swap", func(rng *rand.Rand, n int, u UserID, row []UserID) ([]UserID, bool) {
		if len(row) < 2 {
			return nil, false
		}
		i := rng.Intn(len(row) - 1)
		j := i + 1 + rng.Intn(len(row)-1-i)
		row[i], row[j] = row[j], row[i]
		return row, true
	}},
	{"asymmetric", func(rng *rand.Rand, n int, u UserID, row []UserID) ([]UserID, bool) {
		w, ok := absentFrom(rng, n, u, row)
		return insertSorted(row, w), ok
	}},
	{"self-loop", func(rng *rand.Rand, n int, u UserID, row []UserID) ([]UserID, bool) {
		return insertSorted(row, u), true
	}},
	{"out-of-range", func(rng *rand.Rand, n int, u UserID, row []UserID) ([]UserID, bool) {
		bad := []UserID{-1, UserID(n), UserID(n + rng.Intn(100))}
		return insertSorted(row, bad[rng.Intn(len(bad))]), true
	}},
}

// TestCheckInvariantsMatchesBinarySearchReference proves the cursor
// symmetry check exactly as strict as the binary-search reference: over
// random graphs, intact or with one row damaged by each corruption, the two
// accept and reject the same inputs.
func TestCheckInvariantsMatchesBinarySearchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cases := 0
	for g := 0; g < 400; g++ {
		f := sparseGraph(rng)
		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("graph %d: intact graph rejected: %v", g, err)
		}
		if err := f.checkInvariantsBinarySearch(); err != nil {
			t.Fatalf("graph %d: reference rejects intact graph: %v", g, err)
		}
		n := f.NumIDs()
		for _, c := range corruptions {
			rows := rowsOf(f)
			u := UserID(rng.Intn(n))
			row, ok := c.fn(rng, n, u, rows[u])
			if !ok {
				continue
			}
			rows[u] = row
			bad := withRows(f, rows)
			got, want := bad.CheckInvariants(), bad.checkInvariantsBinarySearch()
			if (got == nil) != (want == nil) {
				t.Fatalf("graph %d, %s of row %d %v: cursor check %v, reference %v", g, c.name, u, row, got, want)
			}
			cases++
		}
	}
	if cases < 2000 {
		t.Fatalf("only %d corrupted cases ran", cases)
	}
}

// TestCheckInvariantsRejectsBalancedAsymmetry covers the asymmetry no
// count can catch: one entry of a row redirected to a new target keeps the
// adjacency size and the edge count consistent. The cursor check rejects
// every such graph. The reference does not always: AreFriends searches the
// shorter of the two rows, which is the entry's own row whenever the target
// has the higher degree.
func TestCheckInvariantsRejectsBalancedAsymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for g := 0; g < 400; g++ {
		f := sparseGraph(rng)
		n := f.NumIDs()
		rows := rowsOf(f)
		u := UserID(rng.Intn(n))
		row := rows[u]
		w, ok := absentFrom(rng, n, u, row)
		if len(row) == 0 || !ok {
			continue
		}
		rows[u] = insertSorted(deleteAt(row, rng.Intn(len(row))), w)
		if err := withRows(f, rows).CheckInvariants(); err == nil {
			t.Fatalf("graph %d: redirected entry %d->%d accepted", g, u, w)
		}
	}

	// 0 and 1 each list 2, which lists neither; 2 has the higher degree.
	hole := &Frozen{
		offsets: []int64{0, 1, 2, 4, 5, 6},
		adj:     []UserID{2, 2, 3, 4, 2, 2},
		present: []bool{true, true, true, true, true},
		users:   5,
		edges:   3,
	}
	if err := hole.CheckInvariants(); err == nil {
		t.Fatal("asymmetric edges 0->2 and 1->2 accepted")
	}
	if err := hole.checkInvariantsBinarySearch(); err != nil {
		t.Fatalf("reference now catches the shorter-row case (%v); tighten this test", err)
	}
}

func BenchmarkFrozenCheckInvariants(b *testing.B) {
	f := randomGraph(b, 20000, 200000, 3).Freeze()
	for _, bc := range []struct {
		name  string
		check func() error
	}{
		{"cursor", f.CheckInvariants},
		{"binary-search", f.checkInvariantsBinarySearch},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.check(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
