package snapshot

import (
	"errors"
	"strings"
	"testing"
)

// fingerprint is a minimal walk with a Match, a field and a list.
type fingerprint struct {
	seed uint64
	on   bool
	n    int
	ints []int
}

func (f *fingerprint) walk(c *Codec) {
	c.Begin("meta")
	c.Match("seed", f.seed)
	c.MatchBool("switch", f.on)
	c.Int(&f.n)
	c.Ints(&f.ints)
	c.End()
}

func writeFingerprint(f fingerprint) []byte {
	w := NewWriter()
	w.Reset()
	f.walk(w)
	return append([]byte(nil), w.Finish()...)
}

// TestCodecFailures pins the latching contract: a Match mismatch, a
// Fail and a wrong section name each surface from Close, the first
// failure wins, reads after it leave their fields untouched, and a
// writer ignores Fail.
func TestCodecFailures(t *testing.T) {
	data := writeFingerprint(fingerprint{seed: 9, on: true, n: 5, ints: []int{1, 2}})

	ok := fingerprint{seed: 9, on: true}
	r, _ := NewReader(data)
	ok.walk(r)
	if err := r.Close(); err != nil || ok.n != 5 || len(ok.ints) != 2 {
		t.Fatalf("matching restore: err %v, fields %+v", err, ok)
	}

	for _, tc := range []struct {
		f    fingerprint
		want string
	}{
		{fingerprint{seed: 10, on: true, n: 77}, `section "meta" offset 8: saved seed 9 does not match config 10`},
		{fingerprint{seed: 9, on: false, n: 77}, "saved switch true does not match config false"},
	} {
		r, _ := NewReader(data)
		tc.f.walk(r)
		err := r.Close()
		var se *Error
		if !errors.As(err, &se) || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("mismatch error = %v, want %q", err, tc.want)
		}
		if tc.f.n != 77 || tc.f.ints != nil {
			t.Fatalf("read after a failure overwrote fields: %+v", tc.f)
		}
	}

	first, second := errors.New("first"), errors.New("second")
	r, _ = NewReader(data)
	r.Begin("meta")
	r.Fail(first)
	r.Fail(second)
	if err := r.Close(); err != first {
		t.Fatalf("Close = %v, want the first Fail", err)
	}

	r, _ = NewReader(data)
	r.Begin("other")
	if err := r.Close(); err == nil || !strings.Contains(err.Error(), "section order violation") {
		t.Fatalf("wrong section name: %v", err)
	}

	w := NewWriter()
	w.Reset()
	w.Fail(first) // a writer records the state as it is
	if w.Err() != nil {
		t.Fatal("Fail latched on a writer")
	}
}
