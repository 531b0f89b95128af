package dynamic

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/task"
	"repro/internal/trace"
)

// Trace ingestion: production arrival logs replay through the engine
// as (round, weight) records. Two line formats are supported —
//
//	CSV:   round,weight        (optional "round,weight" header,
//	                            '#' comment lines allowed)
//	JSONL: {"round":12,"weight":2.5}   one object per line
//
// Records may arrive in any round order; the loader buckets them into
// Trace.Rounds. Weights are validated against the library's wmin ≥ 1
// normalisation up front, with line numbers in every error, so a bad
// log fails at load time instead of mid-replay.

// traceRecord is one parsed (round, weight) entry.
type traceRecord struct {
	Round  int
	Weight float64
}

// ReadTraceCSV parses round,weight records from r into a Trace.
func ReadTraceCSV(r io.Reader, label string) (Trace, error) {
	cr := csv.NewReader(r)
	cr.Comment = '#'
	cr.FieldsPerRecord = 2
	cr.TrimLeadingSpace = true
	var recs []traceRecord
	first := true
	for {
		fields, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Trace{}, fmt.Errorf("dynamic: trace csv: %w", err)
		}
		if first {
			first = false
			if strings.EqualFold(strings.TrimSpace(fields[0]), "round") {
				continue // header row
			}
		}
		line, _ := cr.FieldPos(0)
		round, err := strconv.Atoi(strings.TrimSpace(fields[0]))
		if err != nil {
			return Trace{}, fmt.Errorf("dynamic: trace csv line %d: bad round %q", line, fields[0])
		}
		weight, err := strconv.ParseFloat(strings.TrimSpace(fields[1]), 64)
		if err != nil {
			return Trace{}, fmt.Errorf("dynamic: trace csv line %d: bad weight %q", line, fields[1])
		}
		if err := checkTraceRecord(round, weight); err != nil {
			return Trace{}, fmt.Errorf("dynamic: trace csv line %d: %w", line, err)
		}
		recs = append(recs, traceRecord{Round: round, Weight: weight})
	}
	return bucketTrace(recs, label), nil
}

// ReadTraceJSONL parses one {"round":r,"weight":w} object per line.
func ReadTraceJSONL(r io.Reader, label string) (Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var recs []traceRecord
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		// Pointer fields so a record that omits a key fails loudly
		// instead of silently landing in round 0.
		var rec struct {
			Round  *int     `json:"round"`
			Weight *float64 `json:"weight"`
		}
		dec := json.NewDecoder(strings.NewReader(text))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			return Trace{}, fmt.Errorf("dynamic: trace jsonl line %d: %w", line, err)
		}
		if err := trace.OneValuePerLine(dec); err != nil {
			return Trace{}, fmt.Errorf("dynamic: trace jsonl line %d: %w", line, err)
		}
		if rec.Round == nil || rec.Weight == nil {
			return Trace{}, fmt.Errorf("dynamic: trace jsonl line %d: record must carry both \"round\" and \"weight\"", line)
		}
		if err := checkTraceRecord(*rec.Round, *rec.Weight); err != nil {
			return Trace{}, fmt.Errorf("dynamic: trace jsonl line %d: %w", line, err)
		}
		recs = append(recs, traceRecord{Round: *rec.Round, Weight: *rec.Weight})
	}
	if err := sc.Err(); err != nil {
		return Trace{}, fmt.Errorf("dynamic: trace jsonl: %w", err)
	}
	return bucketTrace(recs, label), nil
}

// LoadTraceFile reads a trace from path, picking the format by
// extension: .csv → CSV, .jsonl/.ndjson/.json → JSONL. The trace label
// defaults to the file's base name.
func LoadTraceFile(path string) (Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return Trace{}, fmt.Errorf("dynamic: trace: %w", err)
	}
	defer f.Close()
	label := filepath.Base(path)
	switch ext := strings.ToLower(filepath.Ext(path)); ext {
	case ".csv":
		return ReadTraceCSV(f, label)
	case ".jsonl", ".ndjson", ".json":
		return ReadTraceJSONL(f, label)
	default:
		return Trace{}, fmt.Errorf("dynamic: trace %s: unknown extension %q (want .csv, .jsonl, .ndjson or .json)", path, ext)
	}
}

func checkTraceRecord(round int, weight float64) error {
	if round < 0 {
		return fmt.Errorf("negative round %d", round)
	}
	if !task.ValidWeight(weight) {
		return fmt.Errorf("weight %v is below 1 (or not finite)", weight)
	}
	return nil
}

// bucketTrace groups records by round, preserving file order within a
// round (the order tasks of one round enter the dispatcher).
func bucketTrace(recs []traceRecord, label string) Trace {
	maxRound := -1
	for _, rec := range recs {
		if rec.Round > maxRound {
			maxRound = rec.Round
		}
	}
	rounds := make([][]float64, maxRound+1)
	for _, rec := range recs {
		rounds[rec.Round] = append(rounds[rec.Round], rec.Weight)
	}
	return Trace{Rounds: rounds, Label: label}
}
