package snapshot

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// sample is the canonical three-section test snapshot used across the
// round-trip, corruption and fuzz suites. It exercises every codec
// primitive, the exact-bit float contract (NaN payloads, ±Inf,
// negative zero), empty slices and caller-walked lists.
type sample struct {
	u8        uint8
	yes, no   bool
	i32       int32
	u64       uint64
	i         int
	neg32     int32
	i64       int64
	pi        float64
	raw, text []uint8
	ints      []int
	i32s      []int32
	i64s      []int64
	u64s      []uint64
	empty     []float64
	specials  [4]float64
	bools     []bool
}

func (s *sample) walk(c *Codec) {
	c.Begin("alpha")
	c.Uint8(&s.u8)
	c.Bool(&s.yes)
	c.Bool(&s.no)
	c.Int32(&s.i32)
	c.Uint64(&s.u64)
	c.Int(&s.i)
	c.Int32(&s.neg32)
	c.Int64(&s.i64)
	c.Float64(&s.pi)
	c.End()
	c.Begin("beta")
	for i := range Items(c, &s.raw, 1) {
		c.Uint8(&s.raw[i])
	}
	for i := range Items(c, &s.text, 1) {
		c.Uint8(&s.text[i])
	}
	c.Ints(&s.ints)
	c.Int32s(&s.i32s)
	for i := range Items(c, &s.i64s, 8) {
		c.Int64(&s.i64s[i])
	}
	c.Uint64s(&s.u64s)
	c.Float64s(&s.empty)
	c.End()
	c.Begin("gamma")
	for i := range s.specials {
		c.Float64(&s.specials[i])
	}
	c.Bools(&s.bools)
	c.End()
}

func newSample() sample {
	deadbeef := uint32(0xDEADBEEF)
	return sample{
		u8: 0xAB, yes: true, i32: int32(deadbeef), u64: 0x0123456789ABCDEF,
		i: -42, neg32: -7, i64: math.MinInt64, pi: math.Pi,
		raw: []uint8{1, 2, 3}, text: []uint8("thresholds"),
		ints: []int{3, -1, 1 << 40}, i32s: []int32{-2, 9}, i64s: []int64{1, -1},
		u64s: []uint64{0, math.MaxUint64},
		specials: [4]float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
			math.Float64frombits(0x7FF8000000000001)}, // NaN with a payload
		bools: []bool{true, false, true},
	}
}

// buildSample writes the canonical sample through w.
func buildSample(w *Codec) []byte {
	s := newSample()
	w.Reset()
	s.walk(w)
	return w.Finish()
}

// readSample restores buildSample's snapshot, failing the test on any
// value drift — floats compared by bit pattern.
func readSample(t *testing.T, data []byte) {
	t.Helper()
	r, err := NewReader(data)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	var got sample
	got.walk(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	want := newSample()
	for i := range want.specials {
		if g, w := math.Float64bits(got.specials[i]), math.Float64bits(want.specials[i]); g != w {
			t.Fatalf("special float %d drifted to bits %#x, want %#x", i, g, w)
		}
	}
	got.specials, want.specials = [4]float64{}, [4]float64{}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored %+v\nwant     %+v", got, want)
	}
}

// TestRoundTrip pins exact-value round-tripping of every primitive, and
// pins the bytes themselves: the sample must encode exactly as the
// committed FuzzDecoder "valid" seed, so a primitive whose layout
// drifts fails here.
func TestRoundTrip(t *testing.T) {
	data := buildSample(NewWriter())
	readSample(t, data)
	seed, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecoder", "valid"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(seed), "\n", 3)
	quoted := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
	want, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != want {
		t.Fatal("sample bytes differ from the committed FuzzDecoder/valid seed")
	}
}

// TestEncoderReuse pins the reusable-buffer contract: Reset cycles
// produce identical bytes and, once the buffer reached its high-water
// mark, encoding allocates nothing.
func TestEncoderReuse(t *testing.T) {
	w := NewWriter()
	first := append([]byte(nil), buildSample(w)...)
	second := buildSample(w)
	if string(first) != string(second) {
		t.Fatal("re-encoding after Reset changed the bytes")
	}
	s := newSample()
	if allocs := testing.AllocsPerRun(50, func() { w.Reset(); s.walk(w); w.Finish() }); allocs != 0 {
		t.Fatalf("warm encoder allocates %v times per snapshot, want 0", allocs)
	}
}

// TestTruncationMatrix cuts the file at EVERY length shorter than the
// original: each prefix must fail — at construction or while reading —
// and never panic or decode cleanly.
func TestTruncationMatrix(t *testing.T) {
	data := buildSample(NewWriter())
	for cut := 0; cut < len(data); cut++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("truncation to %d bytes panicked: %v", cut, r)
				}
			}()
			if _, err := NewDecoder(data[:cut]); err == nil {
				t.Fatalf("truncation to %d of %d bytes passed NewDecoder (file checksum should fail)", cut, len(data))
			}
		}()
	}
}

// TestBitFlipMatrix flips one bit at every byte offset: the file-level
// checksum must reject every mutation before any state is parsed.
func TestBitFlipMatrix(t *testing.T) {
	data := buildSample(NewWriter())
	mut := make([]byte, len(data))
	for off := 0; off < len(data); off++ {
		copy(mut, data)
		mut[off] ^= 0x04
		if _, err := NewDecoder(mut); err == nil {
			t.Fatalf("bit flip at offset %d passed NewDecoder", off)
		}
	}
}

// TestSectionOrderViolation pins that consuming sections out of order
// is a structured error naming both sections, not a misassembled
// restore.
func TestSectionOrderViolation(t *testing.T) {
	data := buildSample(NewWriter())
	d, err := NewDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Section("beta")
	if err == nil {
		t.Fatal("out-of-order Section succeeded")
	}
	var se *Error
	if !errors.As(err, &se) {
		t.Fatalf("error %T is not *snapshot.Error", err)
	}
	if se.Section != "alpha" || !strings.Contains(se.Msg, "order violation") {
		t.Fatalf("unexpected structured error: %+v", se)
	}
}

// TestStructuredReadErrors drives the cursor's failure modes: reads
// past the payload end, bad bool bytes, giant declared lengths and
// unconsumed bytes must each latch an *Error carrying the section name
// and offset.
func TestStructuredReadErrors(t *testing.T) {
	write := func(walk func(c *Codec)) []byte {
		w := NewWriter()
		w.Reset()
		w.Begin("s")
		walk(w)
		w.End()
		return w.Finish()
	}
	read := func(data []byte, walk func(c *Codec)) error {
		r, err := NewReader(data)
		if err != nil {
			t.Fatal(err)
		}
		r.Begin("s")
		walk(r)
		return r.Err()
	}

	seven := int32(7)
	data := write(func(c *Codec) { c.Int32(&seven) })
	v := uint64(99)
	err := read(data, func(c *Codec) {
		c.Uint64(&v) // 8 bytes from a 4-byte payload
		c.Uint64(&v)
	})
	var se *Error
	if !errors.As(err, &se) || se.Section != "s" || !strings.Contains(se.Msg, "truncated") {
		t.Fatalf("overread error = %v", err)
	}
	if v != 99 {
		t.Fatalf("read after latched error stored %d, want the field left alone", v)
	}

	two := uint8(2) // not a valid bool byte
	data = write(func(c *Codec) {
		c.Uint8(&two)
		c.Count(math.MaxUint32, 8)
	})
	var b bool
	if err := read(data, func(c *Codec) { c.Bool(&b) }); err == nil || !strings.Contains(err.Error(), "bad bool") {
		t.Fatalf("bad bool byte error = %v", err)
	}
	var fs []float64
	err = read(data, func(c *Codec) {
		c.Uint8(&two)
		c.Float64s(&fs) // declared length 2^32-1 with no bytes behind it
	})
	if err == nil || !strings.Contains(err.Error(), "exceeds remaining") {
		t.Fatalf("giant length error = %v", err)
	}
	r, _ := NewReader(data)
	r.Begin("s")
	r.Uint8(&two)
	r.End()
	if err := r.Close(); err == nil || !strings.Contains(err.Error(), "left unread") {
		t.Fatalf("leftover-bytes error = %v", err)
	}
}

// TestDecoderClose pins the trailing checks: unconsumed sections and
// trailing garbage both fail Close.
func TestDecoderClose(t *testing.T) {
	data := buildSample(NewWriter())
	d, _ := NewDecoder(data)
	if _, err := d.Section("alpha"); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err == nil || !strings.Contains(err.Error(), "sections consumed") {
		t.Fatalf("early Close error = %v", err)
	}

	// A file whose header declares fewer sections than the body holds:
	// re-seal with a valid CRC so only Close's trailing-bytes check can
	// catch it.
	w := NewWriter()
	w.Begin("only")
	one := uint8(1)
	w.Uint8(&one)
	w.End()
	sealed := w.Finish()
	body := append([]byte(nil), sealed[:len(sealed)-4]...)
	binary.LittleEndian.PutUint32(body[len(magic)+4:], 0) // declare zero sections
	body = binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
	d, err := NewDecoder(body)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err == nil || !strings.Contains(err.Error(), "trailing garbage") {
		t.Fatalf("trailing-garbage Close error = %v", err)
	}
}

// TestEncoderMisusePanics pins that API misuse (not input corruption)
// panics loudly.
func TestEncoderMisusePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("nested Begin", func() {
		enc := NewEncoder()
		enc.Begin("a")
		enc.Begin("b")
	})
	mustPanic("End without Begin", func() { NewEncoder().End() })
	mustPanic("Finish inside section", func() {
		enc := NewEncoder()
		enc.Begin("a")
		enc.Finish()
	})
	mustPanic("Begin after Finish", func() {
		enc := NewEncoder()
		enc.Finish()
		enc.Begin("a")
	})
	mustPanic("empty section name", func() { NewEncoder().Begin("") })
}

// TestVersionRejected pins the format-revision gate.
func TestVersionRejected(t *testing.T) {
	data := append([]byte(nil), buildSample(NewWriter())...)
	data[len(magic)] = 99 // version field
	if _, err := NewDecoder(data); err == nil {
		t.Fatal("future format version passed NewDecoder")
	}
}

// TestWriteFileAtomic pins the durable-write helper: the final file
// holds exactly the bytes, replaces an existing file, and leaves no
// temporary droppings behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.snap")
	if err := WriteFileAtomic(path, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("second")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second" {
		t.Fatalf("file holds %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after atomic writes, want 1", len(entries))
	}
}
