package socialgraph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrCodec is wrapped by every decode error: malformed input is reported as
// a typed error, never a panic, regardless of how the bytes were produced.
var ErrCodec = errors.New("socialgraph: malformed frozen encoding")

// maxCodecIDs bounds the ID space a snapshot may declare. It is far above
// any real world (2^31 users) but keeps a hostile length prefix from driving
// allocation before a single adjacency byte has been read.
const maxCodecIDs = 1 << 31

// WriteBinary encodes the snapshot: ID-space size, the present bitmap, user
// and edge counts, per-ID degrees, then each row delta-encoded (rows are
// strictly ascending, so every entry after the first is a positive delta).
// Decoding is a single linear pass — no sorting, no hashing — which is what
// makes binary world reload O(read).
func (f *Frozen) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	n := len(f.present)
	if err := putUvarint(uint64(n)); err != nil {
		return err
	}
	bitmap := make([]byte, (n+7)/8)
	for u, p := range f.present {
		if p {
			bitmap[u/8] |= 1 << (u % 8)
		}
	}
	if _, err := bw.Write(bitmap); err != nil {
		return err
	}
	if err := putUvarint(uint64(f.users)); err != nil {
		return err
	}
	if err := putUvarint(uint64(f.edges)); err != nil {
		return err
	}
	for u := 0; u < n; u++ {
		if err := putUvarint(uint64(f.offsets[u+1] - f.offsets[u])); err != nil {
			return err
		}
	}
	for u := 0; u < n; u++ {
		row := f.adj[f.offsets[u]:f.offsets[u+1]]
		prev := UserID(0)
		for i, v := range row {
			delta := uint64(v - prev)
			if i == 0 {
				delta = uint64(v)
			}
			if err := putUvarint(delta); err != nil {
				return err
			}
			prev = v
		}
	}
	return bw.Flush()
}

// ReadFrozenBinary decodes a snapshot written by WriteBinary from the whole
// of data, straight off the slice with binary.Uvarint. All length prefixes
// are untrusted: every decoded entry costs at least one input byte, so the
// present flags, offsets and adjacency are each sized once, capped at the
// input's length, and a lying header cannot force allocation beyond a small
// multiple of the real input size (at most 8 bytes each of present flags,
// offsets and adjacency per input byte). Any structural violation, trailing
// bytes included, returns an error wrapping ErrCodec.
func ReadFrozenBinary(data []byte) (*Frozen, error) {
	d := decoder{buf: data}
	numIDs64, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: id space: %v", ErrCodec, err)
	}
	if numIDs64 > maxCodecIDs {
		return nil, fmt.Errorf("%w: id space %d exceeds limit", ErrCodec, numIDs64)
	}
	n := int(numIDs64)

	bitmap, err := d.bytes((n + 7) / 8)
	if err != nil {
		return nil, fmt.Errorf("%w: present bitmap: %v", ErrCodec, err)
	}
	present := make([]bool, n)
	users := 0
	for u := range present {
		if bitmap[u/8]&(1<<(u%8)) != 0 {
			present[u] = true
			users++
		}
	}

	users64, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: user count: %v", ErrCodec, err)
	}
	edges64, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: edge count: %v", ErrCodec, err)
	}
	if edges64 > uint64(maxCodecIDs)*64 {
		return nil, fmt.Errorf("%w: edge count %d exceeds limit", ErrCodec, edges64)
	}

	offsets := make([]int64, 1, min(n, d.remaining())+1)
	for u := 0; u < n; u++ {
		deg, err := d.uvarint()
		if err != nil {
			return nil, fmt.Errorf("%w: degree of %d: %v", ErrCodec, u, err)
		}
		if deg > uint64(n) {
			return nil, fmt.Errorf("%w: degree %d of user %d exceeds id space", ErrCodec, deg, u)
		}
		if deg > 0 && !present[u] {
			return nil, fmt.Errorf("%w: absent user %d has degree %d", ErrCodec, u, deg)
		}
		offsets = append(offsets, offsets[u]+int64(deg))
	}
	total := offsets[n]
	if total != int64(2*edges64) {
		return nil, fmt.Errorf("%w: degree sum %d != 2×%d edges", ErrCodec, total, edges64)
	}

	adj := make([]UserID, 0, min(total, int64(d.remaining())))
	for u := 0; u < n; u++ {
		prev := int64(-1)
		for i := offsets[u]; i < offsets[u+1]; i++ {
			delta, err := d.uvarint()
			if err != nil {
				return nil, fmt.Errorf("%w: row of %d: %v", ErrCodec, u, err)
			}
			if delta > maxCodecIDs {
				return nil, fmt.Errorf("%w: row delta %d of user %d exceeds id space", ErrCodec, delta, u)
			}
			v := prev + int64(delta)
			if prev < 0 {
				v = int64(delta) // first entry is absolute
			} else if delta == 0 {
				return nil, fmt.Errorf("%w: row of %d not strictly ascending", ErrCodec, u)
			}
			if v >= int64(n) || int64(u) == v {
				return nil, fmt.Errorf("%w: edge %d->%d out of range", ErrCodec, u, v)
			}
			adj = append(adj, UserID(v))
			prev = v
		}
	}
	if rest := d.remaining(); rest != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, rest)
	}
	if users != int(users64) {
		return nil, fmt.Errorf("%w: user count %d != bitmap %d", ErrCodec, users64, users)
	}
	return &Frozen{
		offsets: offsets,
		adj:     adj,
		present: present,
		users:   users,
		edges:   int(edges64),
	}, nil
}

// decoder walks an in-memory encoding.
type decoder struct {
	buf []byte
	pos int
}

func (d *decoder) remaining() int { return len(d.buf) - d.pos }

// uvarint decodes the next varint; it reports io.ErrUnexpectedEOF when the
// input ends inside (or before) one and an overflow past 64 bits as such.
func (d *decoder) uvarint() (uint64, error) {
	v, k := binary.Uvarint(d.buf[d.pos:])
	if k <= 0 {
		if k == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		return 0, errors.New("varint overflows 64 bits")
	}
	d.pos += k
	return v, nil
}

// bytes returns the next k bytes without copying.
func (d *decoder) bytes(k int) ([]byte, error) {
	if k > d.remaining() {
		return nil, io.ErrUnexpectedEOF
	}
	b := d.buf[d.pos : d.pos+k]
	d.pos += k
	return b, nil
}
