package main

import (
	"io"
	"log"
	"math"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// take draws n submissions from a stream with their repeat flags.
func take(t *testing.T, s *stream, n int) ([]serve.Submission, []bool) {
	t.Helper()
	subs := make([]serve.Submission, n)
	reps := make([]bool, n)
	for i := range subs {
		var ok bool
		subs[i], reps[i], ok = s.next()
		if !ok {
			t.Fatalf("stream ran out after %d submissions", i)
		}
	}
	return subs, reps
}

func TestStreamsAreDeterministicPerSeed(t *testing.T) {
	const n = 500
	a, _ := take(t, newStreams(7, servedClients)[1], n)
	b, _ := take(t, newStreams(7, servedClients)[1], n)
	c, _ := take(t, newStreams(8, servedClients)[1], n)
	same := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 submission %d differs between two generators: %+v vs %+v", i, a[i], b[i])
		}
		if a[i] == c[i] {
			same++
		}
	}
	if same == n {
		t.Fatal("seeds 7 and 8 generate the same stream")
	}
}

func TestStreamsReachIntendedHitShare(t *testing.T) {
	const n = 100 * genBlock
	seenAny := map[string]int{} // key → client that first submitted it
	for c, s := range newStreams(3, servedClients) {
		subs, reps := take(t, s, n)
		seen := map[string]bool{}
		repeats := 0
		for i, sub := range subs {
			k := sub.Key()
			if reps[i] != seen[k] {
				t.Fatalf("client %d submission %d: repeat flag %v, but key seen before is %v", c, i, reps[i], seen[k])
			}
			if first, ok := seenAny[k]; ok && first != c {
				t.Fatalf("client %d reuses client %d's key %s", c, first, k)
			}
			seen[k], seenAny[k] = true, c
			if reps[i] {
				repeats++
			}
		}
		if got := float64(repeats) / n; got != intendedHitShare() {
			t.Errorf("client %d repeats %.3f of its submissions, want %.3f", c, got, intendedHitShare())
		}
	}
}

// TestUnseenSeedPassesGate runs a served-fmea session, with a seed that
// no recorded baseline run used, against the daemon's handler at
// cmd/served's defaults, and checks every report against core.Run and
// the cache-hit share the daemon counts.
func TestUnseenSeedPassesGate(t *testing.T) {
	srv := serve.New(serve.Config{
		Workers: 1, EngineWorkers: runtime.NumCPU(), EngineLanes: 1,
		Clock: telemetry.SystemClock,
	})
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		if err := srv.Drain(10 * time.Second); err != nil {
			t.Error(err)
		}
	}()
	const perClient = 12 * genBlock
	s, err := runSession(hs.URL, 20261017, time.Now().Add(time.Hour), perClient)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{log: log.New(io.Discard, "", 0)}
	o := &outcome{correct: true}
	if _, err := verifySession(e, o, s); err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 || o.attempted != servedClients*perClient {
		t.Fatalf("%d of %d jobs failed the gate, want 0 of %d", o.failed, o.attempted, servedClients*perClient)
	}
	c := s.metrics.Counters
	if got := float64(c["served_cache_hits"]) / float64(o.attempted); got != intendedHitShare() {
		t.Errorf("daemon cache-hit share %.3f, want %.3f", got, intendedHitShare())
	}
}

// TestTraceExplainsCertify checks that the traced assessment is the
// one cmd/certify prints and that its spans nest without overlapping.
func TestTraceExplainsCertify(t *testing.T) {
	dut, err := buildMemDUT("v2", 8)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Run(dut, certifyOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	root := tr.begin("certify-v2", 0)
	tel := telemetry.NewCampaign(nil, nil)
	as, l, err := traceFlow(tr, root, dut, certifyOptions(), tel)
	tr.end(root)
	if err != nil {
		t.Fatal(err)
	}
	if as.Report() != ref.Report() {
		t.Fatal("traced report differs from core.Run's")
	}
	if got := sha256Hex([]byte(as.Report() + "\n\n")); got != certifyV2SHA {
		t.Fatalf("traced report sha256 %s, recorded certify output %s", got, certifyV2SHA)
	}
	if exps, _, _, _ := campaignCounters(tel); exps != certifyV2Exps || l.planRows != certifyV2Exps {
		t.Fatalf("traced run did %d experiments over %d plan rows, want %d", exps, l.planRows, certifyV2Exps)
	}
	if err := checkSpans(tr.spans); err != nil {
		t.Fatal(err)
	}
	if got, want := len(tr.spans), 1+10; got != want {
		t.Errorf("%d spans, want %d (root plus one per layer call)", got, want)
	}
	if l.total() > tr.spans[root-1].dur() {
		t.Errorf("layers sum to %v, more than the %v root span", l.total(), tr.spans[root-1].dur())
	}
}

func TestCheckSpansRejectsBadNesting(t *testing.T) {
	at := func(id, parent, lane int, start, end time.Duration) span {
		return span{ID: id, Parent: parent, Lane: lane, Name: "s", Start: start, End: end}
	}
	for _, tc := range []struct {
		name  string
		spans []span
		ok    bool
	}{
		{"nested", []span{at(1, 0, 0, 0, 10), at(2, 1, 0, 1, 4), at(3, 1, 0, 4, 9)}, true},
		{"lanes overlap", []span{at(1, 0, 0, 0, 10), at(2, 1, 1, 1, 6), at(3, 1, 2, 2, 8)}, true},
		{"siblings overlap", []span{at(1, 0, 0, 0, 10), at(2, 1, 0, 1, 6), at(3, 1, 0, 5, 9)}, false},
		{"child outlives parent", []span{at(1, 0, 0, 0, 10), at(2, 1, 0, 5, 11)}, false},
		{"child starts early", []span{at(1, 0, 0, 5, 10), at(2, 1, 0, 4, 6)}, false},
		{"inverted", []span{at(1, 0, 0, 5, 4)}, false},
	} {
		if err := checkSpans(tc.spans); (err == nil) != tc.ok {
			t.Errorf("%s: checkSpans = %v, want ok %v", tc.name, err, tc.ok)
		}
	}
}

func TestQuantileMatchesPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, tc := range []struct{ p, want float64 }{{0.25, 2.75}, {0.5, 5.5}, {0.75, 8.25}, {0.9, 9.9}, {0.99, 10}} {
		if got := quantile(xs, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if p, _, ok := tailPercentile(xs[:9]); ok {
		t.Errorf("9 samples give tail percentile %v, want none", p)
	}
	if p, _, _ := tailPercentile(make([]float64, 1000)); p != 99 {
		t.Errorf("1000 samples give tail percentile %v, want 99", p)
	}
}

func TestHostRefChecksAndScales(t *testing.T) {
	h, err := newHostRef(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := h.measure(); err != nil {
			t.Fatal(err)
		}
	}
	if len(h.times) != 2 || len(h.cpu) != 2 {
		t.Fatalf("%d wall and %d CPU times after two calls, want 2 each", len(h.times), len(h.cpu))
	}
	h.times, h.cpu = []float64{refNominal, 3 * refNominal}, []float64{refNominal, refNominal}
	if got := h.at(0); got != 2 {
		t.Errorf("slowdown between calls at 1x and 3x nominal = %v, want 2", got)
	}
	if got := h.cpuAt(0); got != 1 {
		t.Errorf("CPU slowdown between calls at nominal = %v, want 1", got)
	}
	h.nets[1].gates[len(h.nets[1].gates)-1].typ ^= 1
	if err := h.measure(); err == nil {
		t.Error("a rewired reference network passed its checksum")
	}
	one, err := newHostRef(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := one.measure(); err != nil {
		t.Errorf("single-threaded reference, one call per CPU on %v: %v", one.cpus, err)
	}
}
