package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer's public
// function. Spans of one statement share stmt; parent is the id of the
// span that caused this one (0 for a statement's root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Stmt   uint64 `json:"stmt"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// stmtDelta is the cluster-wide Metrics() change across one statement:
// its own cost plus whatever the other session or the async flusher did
// meanwhile.
type stmtDelta struct {
	Stmt      uint64 `json:"stmt"`
	TWIOs     int64  `json:"tw_ios"`
	MaxNode   int64  `json:"max_node_ios"`
	Messages  int64  `json:"msgs"`
	Envelopes int64  `json:"envelopes"`
}

// spanLog is one session's in-memory trace. A nil *spanLog records
// nothing, so the untraced path pays one nil check per call.
type spanLog struct {
	t0     time.Time
	base   uint64 // session-unique high bits of every id
	next   uint64
	spans  []span
	deltas []stmtDelta
}

func newSpanLog(t0 time.Time, session int) *spanLog {
	return &spanLog{t0: t0, base: uint64(session+1) << 40}
}

// begin opens a span and returns its handle.
func (l *spanLog) begin(name string, parent, stmt uint64) int {
	if l == nil {
		return -1
	}
	l.next++
	l.spans = append(l.spans, span{ID: l.base | l.next, Parent: parent, Stmt: stmt, Name: name,
		Start: int64(time.Since(l.t0))})
	return len(l.spans) - 1
}

func (l *spanLog) end(h int) {
	if l == nil {
		return
	}
	l.spans[h].End = int64(time.Since(l.t0))
}

func (l *spanLog) id(h int) uint64 {
	if l == nil {
		return 0
	}
	return l.spans[h].ID
}

// durationsOf collects the durations of every span with the given name.
func durationsOf(logs []*spanLog, name string) []time.Duration {
	var out []time.Duration
	for _, l := range logs {
		for _, s := range l.spans {
			if s.Name == name {
				out = append(out, s.dur())
			}
		}
	}
	return out
}

// traceHeader opens the trace file: what ran, where, and which
// end-to-end metric each per-layer metric should move.
type traceHeader struct {
	Workload  string       `json:"workload"`
	Why       string       `json:"why"`
	Seed      int64        `json:"seed"`
	NProc     int          `json:"nproc"`
	GoVersion string       `json:"go_version"`
	Layers    []layerEntry `json:"layers"`
}

type layerEntry struct {
	Name     string `json:"name"`
	Unit     string `json:"unit"`
	Moves    string `json:"moves"`
	MostWork string `json:"most_work_in"`
	FlatOn   string `json:"flat_on"`
}

// writeTrace writes the header, every span and every statement's metrics
// delta as JSON lines.
func writeTrace(path string, hdr traceHeader, logs []*spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	werr := enc.Encode(hdr)
	for _, l := range logs {
		for _, s := range l.spans {
			if werr == nil {
				werr = enc.Encode(struct {
					Span span `json:"span"`
				}{s})
			}
		}
		for _, d := range l.deltas {
			if werr == nil {
				werr = enc.Encode(struct {
					Delta stmtDelta `json:"stmt_delta"`
				}{d})
			}
		}
	}
	if werr == nil {
		werr = w.Flush()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("write trace %s: %w", path, werr)
	}
	return nil
}
