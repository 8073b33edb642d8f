package worldgen

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"strings"
	"testing"

	"hsprofiler/internal/socialgraph"
)

// FuzzReadSnapshot hardens the binary loader against hostile or damaged
// snapshot files: any input must produce either a valid world or a typed
// error (ErrSnapshot / invariant failure) — never a panic, and never an
// allocation driven by a lying length prefix. The seed corpus applies the
// fault injector's body-mangling repertoire (truncate mid-body, garble with
// trailing junk, bit rot) plus version skew to a small valid snapshot.
func FuzzReadSnapshot(f *testing.F) {
	w, err := GenerateParallel(varyConfig(1), 1, 2)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("HSWB"))
	f.Add([]byte("not a snapshot at all"))
	// Truncations: cut off mid-header, mid-section, mid-checksum.
	for _, frac := range []int{1, 7, 50, 90, 99} {
		f.Add(append([]byte(nil), valid[:len(valid)*frac/100]...))
	}
	// Garbles: truncate and append junk (the faults.Garble shape).
	garbled := append(append([]byte(nil), valid[:len(valid)/2]...), []byte("\x00\xff\x13\x37garbage")...)
	f.Add(garbled)
	// Bit rot across the file.
	for _, pos := range []int{0, 3, 5, 9, len(valid) / 2, len(valid) - 5} {
		mut := append([]byte(nil), valid...)
		mut[pos] ^= 0x80
		f.Add(mut)
	}
	// Version skew: the version varint sits right after the 4-byte magic.
	for _, v := range []byte{0, 1, 3, 0xFF} {
		mut := append([]byte(nil), valid...)
		mut[4] = v
		f.Add(mut)
	}
	// Oversized people-count claim inside an otherwise plausible meta
	// section header.
	f.Add([]byte("HSWB\x02\x01\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\x01"))
	// A graph section that decodes cleanly under a valid checksum but is
	// asymmetric, so only the invariant check rejects it.
	f.Add(asymmetricSnapshot(f, w))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			if got != nil {
				t.Fatal("world returned alongside error")
			}
			return
		}
		// Accepted input must be a fully valid world: positional people,
		// coherent graph, invariants intact.
		if got == nil {
			t.Fatal("nil world without error")
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("accepted world violates invariants: %v", err)
		}
	})
}

// TestReadBinaryErrorsAreTyped pins the error contract the fuzz target
// relies on: decode failures wrap ErrSnapshot so callers can distinguish
// corrupt files from I/O problems.
func TestReadBinaryErrorsAreTyped(t *testing.T) {
	w, err := GenerateParallel(TinyConfig(), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	// The graph section holds the CSR codec bytes verbatim.
	var graph bytes.Buffer
	if err := w.Frozen().WriteBinary(&graph); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		// codec marks failures inside the graph codec, which must also
		// surface as socialgraph.ErrCodec.
		codec bool
		// msg, when set, must appear in the error.
		msg string
	}{
		{name: "empty"},
		{name: "bad magic", data: []byte("XXXX....")},
		{name: "version skew", data: append(append([]byte(nil), valid[:4]...), append([]byte{9}, valid[5:]...)...)},
		{name: "truncated", data: valid[:len(valid)/3]},
		{name: "checksum", data: flipByte(valid, len(valid)/2)},
		{name: "graph codec", data: replaceSection(t, valid, secGraph, append(graph.Bytes(), 0)), codec: true},
		{name: "asymmetric graph", data: asymmetricSnapshot(t, w), msg: "asymmetric"},
	} {
		_, err := ReadBinary(bytes.NewReader(tc.data))
		if err == nil {
			// A mid-payload bit flip is caught by the section checksum, so
			// every case here must error.
			t.Fatalf("%s: accepted", tc.name)
		}
		if !errors.Is(err, ErrSnapshot) {
			t.Fatalf("%s: error not typed ErrSnapshot: %v", tc.name, err)
		}
		if tc.codec && !errors.Is(err, socialgraph.ErrCodec) {
			t.Fatalf("%s: error not typed ErrCodec: %v", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.msg) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.msg)
		}
	}
}

// asymmetricSnapshot is w's snapshot with one friendship made one-sided: a
// user's first friend is swapped for a stranger in the graph section, whose
// checksum is recomputed. The section still decodes cleanly (rows stay
// ascending, counts stay consistent); only the symmetry invariant fails.
func asymmetricSnapshot(tb testing.TB, w *World) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := w.WriteBinary(&buf); err != nil {
		tb.Fatal(err)
	}
	f := w.Frozen()
	n := f.NumIDs()
	rows := make([][]socialgraph.UserID, n)
	bitmap := make([]byte, (n+7)/8)
	redirected := false
	for u := range rows {
		id := socialgraph.UserID(u)
		rows[u] = slices.Clone(f.Friends(id))
		if f.HasUser(id) {
			bitmap[u/8] |= 1 << (u % 8)
		}
		if redirected || len(rows[u]) == 0 {
			continue
		}
		for s := socialgraph.UserID(0); int(s) < n; s++ {
			if _, found := slices.BinarySearch(rows[u], s); s != id && !found {
				rows[u] = append(rows[u][1:], s)
				slices.Sort(rows[u])
				redirected = true
				break
			}
		}
	}
	if !redirected {
		tb.Fatal("no row to redirect")
	}
	// The socialgraph CSR codec: id space, present bitmap, user and edge
	// counts, degrees, then each row delta-encoded.
	graph := binary.AppendUvarint(nil, uint64(n))
	graph = append(graph, bitmap...)
	graph = binary.AppendUvarint(graph, uint64(f.NumUsers()))
	graph = binary.AppendUvarint(graph, uint64(f.NumEdges()))
	for _, row := range rows {
		graph = binary.AppendUvarint(graph, uint64(len(row)))
	}
	for _, row := range rows {
		prev := socialgraph.UserID(0)
		for _, v := range row {
			graph = binary.AppendUvarint(graph, uint64(v-prev))
			prev = v
		}
	}
	return replaceSection(tb, buf.Bytes(), secGraph, graph)
}

// replaceSection returns snap with section id's payload swapped for payload
// under a freshly computed checksum.
func replaceSection(tb testing.TB, snap []byte, id byte, payload []byte) []byte {
	tb.Helper()
	pos := len(snapshotMagic) + 1 // magic, one-byte version varint
	for pos < len(snap) {
		length, k := binary.Uvarint(snap[pos+1:])
		if k <= 0 || pos+1+k+int(length)+4 > len(snap) {
			tb.Fatalf("malformed section at byte %d", pos)
		}
		end := pos + 1 + k + int(length) + 4 // id, length, payload, CRC
		if snap[pos] == id {
			out := append([]byte(nil), snap[:pos]...)
			out = append(out, id)
			out = binary.AppendUvarint(out, uint64(len(payload)))
			out = append(out, payload...)
			out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
			return append(out, snap[end:]...)
		}
		pos = end
	}
	tb.Fatalf("no section %#x", id)
	return nil
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xFF
	return out
}
