package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// JSON Lines is the trace interchange format: one Record object per
// line, blank lines and #-comments skipped. The writer is what lbdyn's
// -trace-out sink and lbserve's trace log produce; the reader is the
// validating side cmd/lbtrace and the fuzz harness drive — every line
// is parsed with unknown fields rejected, checked by Record.Validate,
// and every error carries its 1-based line number.

// Writer streams records as JSON Lines through a buffered writer.
type Writer struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewWriter returns a Writer on w. Call Flush when done.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{bw: bw, enc: json.NewEncoder(bw)}
}

// Write appends one record as a JSON line.
func (w *Writer) Write(rec *Record) error { return w.enc.Encode(rec) }

// Flush drains the buffer to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }

// WriteRecords writes all of recs to w as JSON Lines.
func WriteRecords(w io.Writer, recs []Record) error {
	tw := NewWriter(w)
	for i := range recs {
		if err := tw.Write(&recs[i]); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// maxLine bounds one trace line (a record is a few hundred bytes; the
// headroom keeps hand-edited files working while bounding memory).
const maxLine = 1 << 20

// OneValuePerLine errors when a decoded JSONL line carries trailing
// data after its first value (a second concatenated object, a stray
// closing delimiter): silently dropping the remainder would load a
// truncated file. Unlike json.Decoder.More, which reports false in
// front of a closing '}' or ']', it reads the next token, so any
// leftover input is an error. Every JSONL reader in the module calls
// it after decoding a line's value.
func OneValuePerLine(dec *json.Decoder) error {
	tok, err := dec.Token()
	switch {
	case err == io.EOF:
		return nil
	case err != nil:
		return fmt.Errorf("trailing data after the record: %w", err)
	default:
		return fmt.Errorf("trailing data %v after the record", tok)
	}
}

// ReadRecords parses a JSON Lines trace stream. Blank lines and lines
// starting with '#' are skipped; every other line must be exactly one
// Record object with no unknown fields, and must pass Validate. Errors
// carry the 1-based line number.
func ReadRecords(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	var recs []Record
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 || raw[0] == '#' {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if err := OneValuePerLine(dec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if err := rec.Validate(); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: line %d: %w", line+1, err)
	}
	return recs, nil
}
