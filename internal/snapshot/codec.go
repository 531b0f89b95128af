package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Codec walks one field list in both directions. A writer (NewWriter)
// appends each field's current value; a reader (NewReader) stores the
// saved value into the same field. A stateful component therefore
// lists its checkpoint fields once, as pointer primitives in one
// method, and the write and restore sides cannot drift apart:
//
//	func (s *Thing) Snapshot(c *snapshot.Codec) {
//		c.Int(&s.count)
//		c.Float64s(&s.weights)
//		if len(s.weights) != s.n {
//			c.Fail(fmt.Errorf("thing: %d weights for %d slots", len(s.weights), s.n))
//		}
//	}
//
// Primitives write the Encoder's section payloads and read the
// Decoder's verified Section cursor, in the layout the package comment
// gives. Reads never panic on malformed input. The first failure — a
// framing or section error, a Match mismatch, or a Fail from the walk
// itself — latches; later reads become no-ops that leave their fields
// alone, so a walk needs no error plumbing between fields. Checks on restored
// values are phrased as invariants that every consistent state meets,
// so the same lines run while writing, where Fail is a no-op: a writer
// records the state as it is and the restore judges it. Work that only
// a restore needs (rebuilding scratch, recounting derived state) runs
// under Decoding.
//
// A writer allocates nothing once its buffer reaches the snapshot's
// high-water mark.
type Codec struct {
	enc *Encoder
	dec *Decoder
	sec *Section
	err error
}

// NewWriter returns a codec that encodes into its own reusable
// Encoder. Call Reset before each snapshot and Finish after it.
func NewWriter() *Codec { return &Codec{enc: NewEncoder()} }

// NewReader verifies data's framing and file checksum and returns a
// codec that restores from it. Call Close after the walk.
func NewReader(data []byte) (*Codec, error) {
	d, err := NewDecoder(data)
	if err != nil {
		return nil, err
	}
	return &Codec{dec: d}, nil
}

// Decoding reports whether the codec restores (true) or writes.
func (c *Codec) Decoding() bool { return c.dec != nil }

// Err returns the first failure so far (always nil while writing).
func (c *Codec) Err() error {
	if c.err != nil {
		return c.err
	}
	if c.sec != nil {
		return c.sec.Err()
	}
	return nil
}

// Fail latches err as the restore's failure unless an earlier one is
// already latched. It does nothing while writing.
func (c *Codec) Fail(err error) {
	if c.dec != nil && c.Err() == nil {
		c.err = err
	}
}

// Reset discards the writer's previous snapshot, keeping its buffer.
func (c *Codec) Reset() { c.enc.Reset() }

// Finish completes the writer's snapshot; the result aliases its
// buffer until the next Reset.
func (c *Codec) Finish() []byte { return c.enc.Finish() }

// Close ends a restore: the first latched failure, else the decoder's
// check that every section was consumed.
func (c *Codec) Close() error {
	if err := c.Err(); err != nil {
		return err
	}
	return c.dec.Close()
}

// Begin opens the named section — the next section in file order when
// restoring, which must carry this name.
func (c *Codec) Begin(name string) {
	if c.enc != nil {
		c.enc.Begin(name)
		return
	}
	if c.Err() == nil {
		sec, err := c.dec.Section(name)
		c.sec, c.err = sec, err
	}
}

// End closes the open section; a restore fails if the section has
// bytes left unread.
func (c *Codec) End() {
	if c.enc != nil {
		c.enc.End()
		return
	}
	if c.Err() == nil {
		c.err = c.sec.Done()
	}
}

// take returns the next n payload bytes of a restore, or nil once a
// failure is latched.
func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	return c.sec.take(n)
}

// The fixed-width primitives append the field when writing and store
// the saved value when restoring; after a failure a restore leaves the
// field alone. All integers are little-endian. The write side appends
// in place; the read side shares read8/read32/read64.

func (c *Codec) read8() (uint8, bool) {
	if b := c.take(1); b != nil {
		return b[0], true
	}
	return 0, false
}

func (c *Codec) read32() (uint32, bool) {
	if b := c.take(4); b != nil {
		return binary.LittleEndian.Uint32(b), true
	}
	return 0, false
}

func (c *Codec) read64() (uint64, bool) {
	if b := c.take(8); b != nil {
		return binary.LittleEndian.Uint64(b), true
	}
	return 0, false
}

// Uint8 walks one byte.
func (c *Codec) Uint8(p *uint8) {
	if c.enc != nil {
		c.enc.buf = append(c.enc.buf, *p)
	} else if v, ok := c.read8(); ok {
		*p = v
	}
}

// Bool walks a bool as one byte; a saved byte other than 0 or 1 fails
// the restore (corruption shows up instead of folding to true).
func (c *Codec) Bool(p *bool) {
	if c.enc != nil {
		var b uint8
		if *p {
			b = 1
		}
		c.enc.buf = append(c.enc.buf, b)
	} else if v, ok := c.read8(); ok && v > 1 {
		c.sec.fail("bad bool byte %#x", v)
	} else if ok {
		*p = v == 1
	}
}

// Int32 walks an int32 as its two's-complement 32-bit pattern.
func (c *Codec) Int32(p *int32) {
	if c.enc != nil {
		c.enc.buf = binary.LittleEndian.AppendUint32(c.enc.buf, uint32(*p))
	} else if v, ok := c.read32(); ok {
		*p = int32(v)
	}
}

// Uint64 walks a uint64.
func (c *Codec) Uint64(p *uint64) {
	if c.enc != nil {
		c.enc.buf = binary.LittleEndian.AppendUint64(c.enc.buf, *p)
	} else if v, ok := c.read64(); ok {
		*p = v
	}
}

// Int walks an int as its two's-complement 64-bit pattern.
func (c *Codec) Int(p *int) {
	if c.enc != nil {
		c.enc.buf = binary.LittleEndian.AppendUint64(c.enc.buf, uint64(*p))
	} else if v, ok := c.read64(); ok {
		*p = int(v)
	}
}

// Int64 walks an int64 as its two's-complement pattern.
func (c *Codec) Int64(p *int64) {
	if c.enc != nil {
		c.enc.buf = binary.LittleEndian.AppendUint64(c.enc.buf, uint64(*p))
	} else if v, ok := c.read64(); ok {
		*p = int64(v)
	}
}

// Float64 walks the exact IEEE-754 bit pattern of a float64, never a
// decimal rendering: incrementally accumulated floats must round-trip
// exactly.
func (c *Codec) Float64(p *float64) {
	if c.enc != nil {
		c.enc.buf = binary.LittleEndian.AppendUint64(c.enc.buf, math.Float64bits(*p))
	} else if v, ok := c.read64(); ok {
		*p = math.Float64frombits(v)
	}
}

// Ints walks a length-prefixed []int; a restore reuses the slice's
// backing array, as do the other slice walks.
func (c *Codec) Ints(p *[]int) {
	for i := range Items(c, p, 8) {
		c.Int(&(*p)[i])
	}
}

// Int32s walks a length-prefixed []int32.
func (c *Codec) Int32s(p *[]int32) {
	for i := range Items(c, p, 4) {
		c.Int32(&(*p)[i])
	}
}

// Uint64s walks a length-prefixed []uint64.
func (c *Codec) Uint64s(p *[]uint64) {
	for i := range Items(c, p, 8) {
		c.Uint64(&(*p)[i])
	}
}

// Float64s walks a length-prefixed []float64.
func (c *Codec) Float64s(p *[]float64) {
	for i := range Items(c, p, 8) {
		c.Float64(&(*p)[i])
	}
}

// Bools walks a length-prefixed []bool.
func (c *Codec) Bools(p *[]bool) {
	for i := range Items(c, p, 1) {
		c.Bool(&(*p)[i])
	}
}

// Count walks the length prefix of a caller-managed list: it writes n,
// or returns the saved count, bounded by the remaining payload at
// elemSize bytes per element (0 after a failure).
func (c *Codec) Count(n, elemSize int) int {
	if c.enc != nil {
		c.enc.buf = binary.LittleEndian.AppendUint32(c.enc.buf, uint32(n))
		return n
	}
	if c.err != nil {
		return 0
	}
	return c.sec.count(elemSize)
}

// Match walks a configuration fingerprint: it writes v, and a restore
// fails unless the saved value equals v.
func (c *Codec) Match(name string, v uint64) {
	got := v
	c.Uint64(&got)
	if got != v {
		c.mismatch(name, got, v)
	}
}

// MatchBool is Match for a presence flag.
func (c *Codec) MatchBool(name string, v bool) {
	got := v
	c.Bool(&got)
	if got != v {
		c.mismatch(name, got, v)
	}
}

func (c *Codec) mismatch(name string, got, want any) {
	if c.Err() == nil {
		c.err = &Error{Section: c.sec.name, Offset: c.sec.off,
			Msg: fmt.Sprintf("saved %s %v does not match config %v", name, got, want)}
	}
}

// Items walks the count of a list whose elements the caller then
// walks in order, and returns the list to range over: the count
// (bounded at elemSize bytes per element) is written, or on resume
// *s is resized to the saved count, reusing its backing array, with
// the elements zeroed for the walk to fill.
//
//	for i := range snapshot.Items(c, &s.recs, 16) {
//		s.recs[i].snapshot(c)
//	}
func Items[T any](c *Codec, s *[]T, elemSize int) []T {
	n := c.Count(len(*s), elemSize)
	if c.Decoding() {
		if cap(*s) < n {
			*s = make([]T, n)
		} else {
			*s = (*s)[:n]
			clear(*s)
		}
	}
	return *s
}
