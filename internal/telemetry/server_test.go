package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestDefaultLoopback: empty and wildcard-host addresses rewrite to
// loopback; concrete hosts and unparseable strings pass through.
func TestDefaultLoopback(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", "127.0.0.1:0"},
		{":0", "127.0.0.1:0"},
		{":8080", "127.0.0.1:8080"},
		{"0.0.0.0:9090", "127.0.0.1:9090"},
		{"[::]:9090", "127.0.0.1:9090"},
		{"*:7070", "127.0.0.1:7070"},
		{"127.0.0.1:8080", "127.0.0.1:8080"},
		{"192.168.1.5:80", "192.168.1.5:80"},
		{"localhost:80", "localhost:80"},
		{"[fe80::1]:80", "[fe80::1]:80"},
		{"not-an-addr", "not-an-addr"}, // net.Listen reports the error
	} {
		if got := DefaultLoopback(tc.in); got != tc.want {
			t.Errorf("DefaultLoopback(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestServeStatusSequentialLifecycles runs two full ServeStatus
// lifecycles in one process: each server must expose its own campaign's
// /progress and expvar snapshot, and Close must release the process-wide
// campaign pointer so /debug/vars renders null instead of retaining the
// dead campaign — while a Close racing a newer server leaves the newer
// campaign installed.
func TestServeStatusSequentialLifecycles(t *testing.T) {
	expDone := func(t *testing.T, addr string, path string) int64 {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var snap Snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatalf("GET %s: %v\n%s", path, err, body)
		}
		return snap.Done
	}
	vars := func(t *testing.T, addr string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + "/debug/vars")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	// Lifecycle 1.
	c1 := NewCampaign(nil, nil)
	c1.PlanBuilt(5, 1, 1, 9)
	st := c1.ExpStart(0)
	c1.ExpFinish(0, "safe-detected", false, 1, 4, st)
	s1, err := ServeStatus("127.0.0.1:0", c1)
	if err != nil {
		t.Fatal(err)
	}
	if got := expDone(t, s1.Addr, "/progress"); got != 1 {
		t.Fatalf("lifecycle 1 /progress done = %d, want 1", got)
	}
	if v := vars(t, s1.Addr); !strings.Contains(v, `"exp_done":1`) {
		t.Fatalf("lifecycle 1 /debug/vars missing campaign counters:\n%s", v)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if got := current.Load(); got != nil {
		t.Fatal("Close left the process-wide campaign pointer installed")
	}

	// Lifecycle 2: a fresh campaign on a fresh server; the old
	// campaign's counts must not bleed through the expvar indirection.
	c2 := NewCampaign(nil, nil)
	c2.PlanBuilt(7, 1, 1, 9)
	for i := 0; i < 3; i++ {
		st := c2.ExpStart(i)
		c2.ExpFinish(i, "safe-detected", false, 1, 4, st)
	}
	s2, err := ServeStatus("127.0.0.1:0", c2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := expDone(t, s2.Addr, "/progress"); got != 3 {
		t.Fatalf("lifecycle 2 /progress done = %d, want 3", got)
	}
	if v := vars(t, s2.Addr); !strings.Contains(v, `"exp_done":3`) {
		t.Fatalf("lifecycle 2 /debug/vars serving stale campaign:\n%s", v)
	}

	// A newer server's campaign survives an older Close: s3 installs c3,
	// then closing s2 must not tear c3 down (compare-and-swap release).
	c3 := NewCampaign(nil, nil)
	s3, err := ServeStatus("127.0.0.1:0", c3)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if current.Load() != c3 {
		t.Fatal("older Close released a newer server's campaign")
	}
	// And closing the newest server renders the expvar null on any
	// still-running endpoint.
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
	s4, err := ServeStatus("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s4.Close()
	if v := vars(t, s4.Addr); !strings.Contains(v, `"campaign": null`) {
		t.Fatalf("/debug/vars should render a released campaign as null:\n%s", v)
	}
}

// TestServeStatusExposed binds exactly the given address — the explicit
// opt-in keeps wildcard hosts wildcard.
func TestServeStatusExposed(t *testing.T) {
	s, err := ServeStatusExposed(":0", NewCampaign(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if strings.HasPrefix(s.Addr, "127.0.0.1:") {
		t.Fatalf("addr %q: ServeStatusExposed must not rewrite to loopback", s.Addr)
	}
}

// TestSnapshotSanitize: the /progress payload is a product contract —
// every derived float must be finite or encoding/json refuses the whole
// snapshot.
func TestSnapshotSanitize(t *testing.T) {
	s := Snapshot{
		ElapsedSec:  math.Inf(1),
		ExpPerSec:   math.NaN(),
		FaultPerSec: math.Inf(-1),
		CyclePerSec: math.NaN(),
		Utilization: math.Inf(1),
		ETASec:      math.NaN(),
	}
	s.sanitize()
	if s.ElapsedSec != 0 || s.ExpPerSec != 0 || s.FaultPerSec != 0 ||
		s.CyclePerSec != 0 || s.Utilization != 0 || s.ETASec != -1 {
		t.Fatalf("sanitize left non-finite defaults: %+v", s)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("sanitized snapshot does not marshal: %v", err)
	}
}

// TestWriteJSONEncodeFailure: an unencodable value must surface as a
// 500, never a truncated 200 body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, math.NaN())
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	rec = httptest.NewRecorder()
	writeJSON(rec, map[string]int{"ok": 1})
	if rec.Code != http.StatusOK || !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("good value: status %d body %q", rec.Code, rec.Body.String())
	}
}

// TestCampaignHandlerPerCampaign: two handlers over two campaigns serve
// disjoint snapshots — the building block behind per-job /progress in
// internal/serve.
func TestCampaignHandlerPerCampaign(t *testing.T) {
	a, b := NewCampaign(nil, nil), NewCampaign(nil, nil)
	a.PlanBuilt(2, 1, 1, 9)
	b.PlanBuilt(9, 1, 1, 9)
	for i, h := range []http.Handler{CampaignHandler(a), CampaignHandler(b)} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/progress", nil))
		var snap Snapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		want := int64(2)
		if i == 1 {
			want = 9
		}
		if snap.Total != want {
			t.Fatalf("handler %d total = %d, want %d", i, snap.Total, want)
		}
	}
}
