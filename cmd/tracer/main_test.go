package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// writeFleetJournals emits a small deterministic two-process trace —
// a coordinator with three leases (one straggling re-issue) and one
// worker whose lease span parents under the coordinator's via rparent
// — through the real telemetry producer, and returns the two paths in
// coordinator-first order.
func writeFleetJournals(t *testing.T) []string {
	t.Helper()
	dir := t.TempDir()
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	now := base
	clock := func() time.Time { return now }
	at := func(d time.Duration) { now = base.Add(d) }

	// Coordinator process.
	cpath := filepath.Join(dir, "coordinator.spans.jsonl")
	cj, err := telemetry.OpenJournal(cpath, clock)
	if err != nil {
		t.Fatal(err)
	}
	coord := telemetry.NewCampaign(nil, nil)
	coord.Tracer = telemetry.NewTracer(cj, "coordinator", telemetry.TraceID("tracer-test"))

	at(0)
	root := coord.StartSpan("dist-campaign")
	coord.SetTraceRoot(root)

	lease := func(id, lo, hi, worker, attempt int64) telemetry.Span {
		return coord.StartSpanAttrs("lease", func(e *telemetry.Enc) {
			e.Int("lease", id)
			e.Int("lo", lo)
			e.Int("hi", hi)
			e.Int("worker", worker)
			e.Int("attempt", attempt)
		})
	}
	at(10 * time.Millisecond)
	l1 := lease(1, 0, 16, 1, 1)
	at(110 * time.Millisecond)
	l1.EndOutcome("done")
	at(110 * time.Millisecond)
	l2 := lease(2, 16, 20, 1, 1)
	at(160 * time.Millisecond)
	l2.EndOutcome("expired")
	at(170 * time.Millisecond)
	l3 := lease(3, 16, 20, 2, 2)
	at(370 * time.Millisecond)
	l3.EndOutcome("done")
	at(400 * time.Millisecond)
	root.End()
	if err := cj.Close(); err != nil {
		t.Fatal(err)
	}

	// Worker process: adopts the trace from the wire and parents its
	// lease span under the coordinator's l1 by raw remote id. Its own
	// span ids restart at 1, so id collisions across files are part of
	// the fixture.
	wpath := filepath.Join(dir, "w1.spans.jsonl")
	wj, err := telemetry.OpenJournal(wpath, clock)
	if err != nil {
		t.Fatal(err)
	}
	work := telemetry.NewCampaign(nil, nil)
	work.Tracer = telemetry.NewTracer(wj, "w1", 0)

	at(12 * time.Millisecond)
	wl := work.StartRemoteSpan("worker-lease", coord.Tracer.TraceHex(), l1.ID(), func(e *telemetry.Enc) {
		e.Int("lease", 1)
		e.Int("lo", 0)
		e.Int("hi", 16)
	})
	work.SetTraceRoot(wl)
	at(20 * time.Millisecond)
	b1 := work.StartSpanInt("batch", "lanes", 64)
	at(60 * time.Millisecond)
	b1.End()
	at(60 * time.Millisecond)
	b2 := work.StartSpanInt("batch", "lanes", 32)
	at(100 * time.Millisecond)
	b2.End()
	at(100 * time.Millisecond)
	ex := work.StartSpanInt("exp", "i", 3)
	at(104 * time.Millisecond)
	ex.EndOutcome("silent")
	at(108 * time.Millisecond)
	wl.EndOutcome("done")
	if err := wj.Close(); err != nil {
		t.Fatal(err)
	}
	return []string{cpath, wpath}
}

// TestReportByteStable: the acceptance bar — identical journals must
// render to identical bytes, in text and JSON, across runs.
func TestReportByteStable(t *testing.T) {
	paths := writeFleetJournals(t)
	for _, asJSON := range []bool{false, true} {
		a, err := render(paths, asJSON)
		if err != nil {
			t.Fatal(err)
		}
		b, err := render(paths, asJSON)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("json=%v: two renders of the same journals differ:\n--- first\n%s\n--- second\n%s", asJSON, a, b)
		}
	}
}

// TestReportContent pins the load-bearing analysis results: critical
// path through the straggling re-issued lease, cross-file rparent
// linking, straggler attribution, outcome counts and lane occupancy.
func TestReportContent(t *testing.T) {
	paths := writeFleetJournals(t)
	b, err := render(paths, false)
	if err != nil {
		t.Fatal(err)
	}
	out := string(b)

	for _, want := range []string{
		// Header: both files, one shared trace id, 400ms wall.
		"2 file(s), 8 span(s), 0 unclosed",
		"wall: 400ms",
		// The critical path descends from the campaign root into the
		// re-issued straggler lease (ends at 370ms), not the first one.
		"dist-campaign (coordinator) +0s 400ms",
		"  lease (coordinator) +170ms 200ms [done]",
		// Straggler attribution: 200ms over 4 rows.
		"[16,20) worker 2: 200ms for 4 row(s) = 50.000 ms/row [done]",
		// The expired lease and the attempt-2 re-issue both surface.
		"outcomes: done 2 expired 1",
		"[16,20) attempt 2 worker 2 -> done",
		// Lane occupancy: 40ms@64 + 40ms@32 lanes = 60ms weighted over
		// 80ms kernel = 75%.
		"2 batch(es), kernel time 80ms, lane-weighted 60ms, occupancy 75.0%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q\n--- report\n%s", want, out)
		}
	}

	// Cross-file linking: the worker-lease span resolved its rparent
	// to the coordinator's lease 1 — so the worker's spans sit inside
	// the fleet trace, and w1's leaf busy time is 84ms (two batches
	// plus the exp span) at 21% of the 400ms wall.
	if !strings.Contains(out, "w1") || !strings.Contains(out, "21.0% busy 84ms") {
		t.Errorf("worker utilization row missing or wrong\n--- report\n%s", out)
	}
}

// TestReportNoTimestamps: a clockless journal (the deterministic-test
// configuration) must still load, report counts, and say why durations
// are absent.
func TestReportNoTimestamps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spans.jsonl")
	j, err := telemetry.OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	hub := telemetry.NewCampaign(nil, nil)
	hub.Tracer = telemetry.NewTracer(j, "p", telemetry.TraceID("x"))
	sp := hub.StartSpan("campaign")
	hub.SetTraceRoot(sp)
	hub.StartSpan("phase-a").End()
	sp.End()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := render([]string{path}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "journal has no timestamps") {
		t.Fatalf("missing no-timestamps note:\n%s", b)
	}
	if !strings.Contains(string(b), "1 file(s), 2 span(s), 0 unclosed") {
		t.Fatalf("wrong counts:\n%s", b)
	}
}

// TestReportSkipsCampaignEvents: the tool accepts the combined run
// journal — lifecycle events interleave with spans and are counted,
// not fatal.
func TestReportSkipsCampaignEvents(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	lines := "" +
		`{"seq":1,"ev":"campaign_start","total":4}` + "\n" +
		`{"seq":2,"ev":"span_start","trace":"00000000000000aa","span":1,"name":"campaign","proc":"p"}` + "\n" +
		`{"seq":3,"ev":"exp_finish","i":0,"outcome":"silent"}` + "\n" +
		`{"seq":4,"ev":"span_end","span":1}` + "\n"
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := render([]string{path}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "2 non-span event(s) skipped") {
		t.Fatalf("skip counting wrong:\n%s", b)
	}
}

// TestPhaseBreakdownSplitsFallbackCause: lane-fallback spans are
// broken down per cause, so the report shows what each reason for
// leaving the lane path cost; spans without a cause keep their name.
func TestPhaseBreakdownSplitsFallbackCause(t *testing.T) {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	now := base
	clock := func() time.Time { return now }
	path := filepath.Join(t.TempDir(), "fallback.spans.jsonl")
	j, err := telemetry.OpenJournal(path, clock)
	if err != nil {
		t.Fatal(err)
	}
	c := telemetry.NewCampaign(nil, nil)
	c.Tracer = telemetry.NewTracer(j, "injector", telemetry.TraceID("fallback-test"))
	root := c.StartSpan("campaign")
	c.SetTraceRoot(root)
	b := c.BatchStart(64)
	now = now.Add(40 * time.Millisecond)
	c.BatchDone(b, 64)
	for _, step := range []struct {
		cause string
		d     time.Duration
	}{
		{telemetry.FallbackUnbatchable, 5 * time.Millisecond},
		{telemetry.FallbackBatchFailed, 7 * time.Millisecond},
		{telemetry.FallbackBatchFailed, 9 * time.Millisecond},
	} {
		sp := c.LaneFallback(step.cause)
		now = now.Add(step.d)
		sp.End()
	}
	root.End()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := load([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]phaseRow{}
	for _, p := range phaseBreakdown(tr) {
		rows[p.Name] = p
	}
	for name, want := range map[string]phaseRow{
		"batch":                       {Name: "batch", Count: 1, TotalNs: int64(40 * time.Millisecond)},
		"lane-fallback[unbatchable]":  {Name: "lane-fallback[unbatchable]", Count: 1, TotalNs: int64(5 * time.Millisecond)},
		"lane-fallback[batch_failed]": {Name: "lane-fallback[batch_failed]", Count: 2, TotalNs: int64(16 * time.Millisecond)},
	} {
		got := rows[name]
		if got.Count != want.Count || got.TotalNs != want.TotalNs {
			t.Errorf("phase %q = %+v, want count %d total %v", name, got, want.Count, time.Duration(want.TotalNs))
		}
	}
	if _, ok := rows["lane-fallback"]; ok {
		t.Error("fallback spans were not split by cause")
	}
}
