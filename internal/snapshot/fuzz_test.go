package snapshot

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// fuzzSeeds returns the seed inputs committed under
// testdata/fuzz/FuzzDecoder: a pristine snapshot plus the three
// corruption families the decoder must reject without panicking —
// truncated, bit-flipped, and section-reordered files.
func fuzzSeeds() map[string][]byte {
	w := NewWriter()
	valid := append([]byte(nil), buildSample(w)...)

	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40

	// Same sections, written in a different order: framing and
	// checksums are all valid, only the order contract is violated.
	w.Reset()
	for i, name := range []string{"beta", "alpha", "gamma"} {
		b := uint8(i + 1)
		w.Begin(name)
		w.Uint8(&b)
		w.End()
	}
	reordered := append([]byte(nil), w.Finish()...)

	return map[string][]byte{
		"valid":             valid,
		"truncated":         valid[:len(valid)*2/3],
		"bit-flipped":       flipped,
		"section-reordered": reordered,
		"empty":             {},
		"magic-only":        []byte(magic),
	}
}

// FuzzDecoder feeds arbitrary bytes through the full restore path —
// construction, the in-order section walk of the canonical sample
// (every codec primitive and caller-walked list), End and Close. The
// contract under fuzzing is purely "never panic, never allocate
// absurdly": corrupt input must surface as an error.
func FuzzDecoder(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(data)
		if err != nil {
			return
		}
		var s sample
		s.walk(r)
		_ = r.Close()
	})
}

// TestGenerateFuzzCorpus regenerates the committed seed corpus. It is
// a no-op unless SNAPSHOT_GEN_CORPUS=1 is set, so routine test runs
// never rewrite testdata.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("SNAPSHOT_GEN_CORPUS") != "1" {
		t.Skip("set SNAPSHOT_GEN_CORPUS=1 to regenerate testdata/fuzz/FuzzDecoder")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecoder")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, seed := range fuzzSeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
