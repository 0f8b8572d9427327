// Command checkjournal validates a campaign journal written by
// cmd/injector -journal (or any telemetry.Journal) against the event
// schema of DESIGN.md §10:
//
//   - every line is a standalone JSON object (JSONL, no torn lines);
//   - "seq" is present and strictly increasing from 1;
//   - "ev" names a known event, and the event carries its required
//     fields with the right JSON types;
//   - timestamps, when present, parse as RFC 3339.
//
// Span journals (cmd/injector -trace, cmd/campaignd -trace) are the
// same stream with span_start/span_end events, and get structural
// checks on top of the schema:
//
//   - the trace id is 16 lowercase hex digits and span ids are nonzero;
//   - a span id opens at most once and closes at most once, and every
//     span_end closes a span that was opened earlier;
//   - a span's parent started earlier in the same journal
//     (parent-before-child; rparent refers to another process's
//     journal, so only its type is checked);
//   - every span is closed by end of journal (a clean process closes
//     what it opens; a crashed worker's journal fails this check, which
//     is the point).
//
// Exit 0 when the journal is well-formed, 1 with one diagnostic per
// offending line otherwise, 2 on usage/IO errors. CI runs it over the
// journal of a live smoke campaign, so a schema drift between the
// telemetry package and this checker fails the build.
//
// Usage: checkjournal file.jsonl   (or "-" for stdin)
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// required maps each event to its mandatory non-seq/ts/ev fields and
// their expected JSON kinds ("string", "number", "bool").
var required = map[string]map[string]string{
	"campaign_start":   {"total": "number", "workers": "number", "lanes": "number", "plan_hash": "string"},
	"phase":            {"name": "string"},
	"exp_start":        {"i": "number"},
	"exp_finish":       {"i": "number", "outcome": "string", "sens": "bool", "deviated": "number", "first_dev": "number"},
	"retry":            {"i": "number", "attempt": "number", "err": "string"},
	"quarantine":       {"i": "number", "attempts": "number", "err": "string"},
	"checkpoint_write": {"completed": "number"},
	"checkpoint_load":  {"results": "number", "quarantined": "number"},
	"summary":          {"done": "number", "total": "number", "retries": "number", "quarantined": "number", "checkpoints": "number", "sim_cycles": "number"},
	"span_start":       {"trace": "string", "span": "number", "name": "string", "proc": "string"},
	"span_end":         {"span": "number"},
}

// optional maps events to optional fields whose type is still checked
// when present.
var optional = map[string]map[string]string{
	"span_start": {"parent": "number", "rparent": "number", "cause": "string"},
	"span_end":   {"outcome": "string"},
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: checkjournal file.jsonl  (use - for stdin)")
		os.Exit(2)
	}
	var r io.Reader = os.Stdin
	if os.Args[1] != "-" {
		f, err := os.Open(os.Args[1])
		if err != nil {
			fmt.Fprintf(os.Stderr, "checkjournal: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		r = f
	}
	bad, lines, err := check(r, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "checkjournal: %v\n", err)
		os.Exit(2)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "checkjournal: %d invalid line(s) of %d\n", bad, lines)
		os.Exit(1)
	}
	fmt.Printf("checkjournal: %d event(s) OK\n", lines)
}

// check validates the stream, writing one diagnostic per bad line, and
// returns (bad lines, total lines).
func check(r io.Reader, diag io.Writer) (bad, lines int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var prevSeq float64
	opened := map[float64]bool{} // span id -> still open
	started := map[float64]bool{}
	for sc.Scan() {
		lines++
		fail := func(format string, args ...any) {
			bad++
			fmt.Fprintf(diag, "line %d: %s\n", lines, fmt.Sprintf(format, args...))
		}
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			fail("not a JSON object: %v", err)
			continue
		}
		seq, ok := obj["seq"].(float64)
		if !ok {
			fail("missing numeric \"seq\"")
			continue
		}
		if seq != prevSeq+1 {
			fail("seq %v, want %v (strictly increasing from 1)", seq, prevSeq+1)
		}
		prevSeq = seq
		if ts, present := obj["ts"]; present {
			s, ok := ts.(string)
			if !ok {
				fail("\"ts\" is not a string")
			} else if _, err := time.Parse(time.RFC3339Nano, s); err != nil {
				fail("bad timestamp: %v", err)
			}
		}
		ev, ok := obj["ev"].(string)
		if !ok {
			fail("missing string \"ev\"")
			continue
		}
		fields, known := required[ev]
		if !known {
			fail("unknown event %q", ev)
			continue
		}
		names := make([]string, 0, len(fields))
		for name := range fields { //det:order collecting before sort
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			kind := fields[name]
			v, present := obj[name]
			if !present {
				fail("%s: missing field %q", ev, name)
				continue
			}
			okKind := false
			switch kind {
			case "string":
				_, okKind = v.(string)
			case "number":
				_, okKind = v.(float64)
			case "bool":
				_, okKind = v.(bool)
			}
			if !okKind {
				fail("%s: field %q is not a %s", ev, name, kind)
			}
		}
		if opts, ok := optional[ev]; ok {
			names := make([]string, 0, len(opts))
			for name := range opts { //det:order collecting before sort
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				v, present := obj[name]
				if !present {
					continue
				}
				okKind := false
				switch opts[name] {
				case "string":
					_, okKind = v.(string)
				case "number":
					_, okKind = v.(float64)
				}
				if !okKind {
					fail("%s: field %q is not a %s", ev, name, opts[name])
				}
			}
		}

		// Structural span checks.
		switch ev {
		case "span_start":
			id, _ := obj["span"].(float64)
			if id == 0 {
				fail("span_start: zero span id")
				continue
			}
			if tr, ok := obj["trace"].(string); ok && !traceHexOK(tr) {
				fail("span_start: trace %q is not 16 lowercase hex digits", tr)
			}
			if started[id] {
				fail("span_start: span %v opened twice", id)
				continue
			}
			started[id] = true
			opened[id] = true
			if p, ok := obj["parent"].(float64); ok && p != 0 && !started[p] {
				fail("span_start: span %v references parent %v which has not started", id, p)
			}
		case "span_end":
			id, _ := obj["span"].(float64)
			if !started[id] {
				fail("span_end: span %v was never opened", id)
			} else if !opened[id] {
				fail("span_end: span %v closed twice", id)
			}
			delete(opened, id)
		}
	}
	if len(opened) > 0 {
		ids := make([]float64, 0, len(opened))
		for id := range opened { //det:order collecting before sort
			ids = append(ids, id)
		}
		sort.Float64s(ids)
		bad++
		fmt.Fprintf(diag, "end of journal: %d span(s) never closed (first: %v)\n", len(ids), ids[0])
	}
	return bad, lines, sc.Err()
}

// traceHexOK reports whether s is exactly 16 lowercase hex digits —
// the wire form of a trace id.
func traceHexOK(s string) bool {
	if len(s) != 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
