package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/iec61508"
	"repro/internal/inject"
	"repro/internal/memsys"
	"repro/internal/telemetry"
)

// flowDUT builds a flow-ready DUT. addrWidth 8 is the calibrated
// full-size memory (for metric assertions); 6 keeps injection campaigns
// fast (the SFF calibration shifts with the logic/memory ratio).
func flowDUT(t *testing.T, v2 bool, addrWidth int) *memsys.FlowDUT {
	t.Helper()
	var cfg memsys.Config
	if v2 {
		cfg = memsys.V2Config()
	} else {
		cfg = memsys.V1Config()
	}
	cfg.AddrWidth = addrWidth
	d, err := memsys.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := memsys.NewFlowDUT(d)
	f.ValidationWords = 4
	return f
}

func TestFlowWithoutValidation(t *testing.T) {
	opts := DefaultOptions()
	opts.RunValidation = false
	as, err := Run(flowDUT(t, true, 8), opts)
	if err != nil {
		t.Fatal(err)
	}
	if as.Validation != nil {
		t.Error("validation present despite RunValidation=false")
	}
	if as.SIL != iec61508.SIL3 || !as.TargetMet {
		t.Errorf("v2 flow SIL = %v targetMet=%v", as.SIL, as.TargetMet)
	}
	if as.Metrics.SFF() < 0.99 {
		t.Errorf("v2 SFF = %v", as.Metrics.SFF())
	}
	rep := as.Report()
	for _, want := range []string{"Safety assessment", "SFF", "PASS", "criticality"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestFlowV1FailsTarget(t *testing.T) {
	opts := DefaultOptions()
	opts.RunValidation = false
	as, err := Run(flowDUT(t, false, 8), opts)
	if err != nil {
		t.Fatal(err)
	}
	if as.TargetMet {
		t.Error("v1 must fail the SIL3 target")
	}
	if !strings.Contains(as.Report(), "FAIL") {
		t.Error("report should show FAIL verdict")
	}
}

func TestFullFlowWithValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("full validation flow is slow")
	}
	opts := DefaultOptions()
	opts.Plan = inject.PlanConfig{TransientPerZone: 1, PermanentPerZone: 1, Seed: 1}
	opts.WideFaults = 4
	opts.ToggleThreshold = 0.95
	opts.Tolerance = 0.6
	as, err := Run(flowDUT(t, true, 6), opts)
	if err != nil {
		t.Fatal(err)
	}
	v := as.Validation
	if v == nil {
		t.Fatal("no validation result")
	}
	if !v.Complete {
		t.Errorf("workload incomplete: %v", v.InactiveZones)
	}
	if v.Report == nil || len(v.Report.Results) == 0 {
		t.Fatal("no injection results")
	}
	if v.WideReport == nil || len(v.WideReport.Results) != 8 { // both polarities per site
		t.Error("wide report missing")
	}
	if !v.ToggleOK {
		t.Errorf("toggle: raw %.4f adj %.4f", v.ToggleRaw, v.ToggleAdj)
	}
	if v.PassFraction < 0.7 {
		for _, r := range v.Rows {
			if !r.Within {
				t.Logf("over-claimed: %s estS=%.2f measS=%.2f estDDF=%.2f measDDF=%.2f",
					r.Name, r.EstS, r.MeasS, r.EstDDF, r.MeasDDF)
			}
		}
		t.Errorf("validation pass fraction = %.2f", v.PassFraction)
	}
	rep := as.Report()
	for _, want := range []string{"Validation", "campaign coverage", "toggle"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestSRSDocument(t *testing.T) {
	opts := DefaultOptions()
	opts.RunValidation = false
	as, err := Run(flowDUT(t, true, 8), opts)
	if err != nil {
		t.Fatal(err)
	}
	srs := as.SRS()
	for _, want := range []string{
		"SAFETY REQUIREMENTS SPECIFICATION",
		"SAFETY FUNCTION",
		"SAFETY INTEGRITY TARGET",
		"FAILURE MODES AND EFFECTS ANALYSIS",
		"CLAIMED DIAGNOSTIC TECHNIQUES",
		"RAM monitoring with Hamming code",
		"MOST CRITICAL ELEMENTS",
		"VALIDATION EVIDENCE",
		"analytical only",
		"VERDICT",
		"PASS",
	} {
		if !strings.Contains(srs, want) {
			t.Errorf("SRS missing %q", want)
		}
	}
}

// TestDRCPreflightEmbedded asserts the static DRC runs as part of the
// flow by default, its summary lands in the report, and SkipDRC removes
// it — the contract cmd/certify's conditional-grade logic depends on.
func TestDRCPreflightEmbedded(t *testing.T) {
	opts := DefaultOptions()
	opts.RunValidation = false
	as, err := Run(flowDUT(t, true, 8), opts)
	if err != nil {
		t.Fatal(err)
	}
	if as.DRC == nil {
		t.Fatal("assessment has no DRC result")
	}
	if !as.DRCClean() {
		t.Fatalf("v2 DRC pre-flight not clean:\n%s", as.DRC.Render())
	}
	if len(as.DRC.Ran) == 0 {
		t.Fatal("DRC ran no rules")
	}
	rep := as.Report()
	for _, want := range []string{"Static DRC pre-flight", as.DRC.Summary()} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}

	opts.SkipDRC = true
	as, err = Run(flowDUT(t, true, 8), opts)
	if err != nil {
		t.Fatal(err)
	}
	if as.DRC != nil {
		t.Error("DRC present despite SkipDRC")
	}
	if !as.DRCClean() {
		t.Error("DRCClean must be vacuously true when skipped")
	}
	if strings.Contains(as.Report(), "Static DRC pre-flight") {
		t.Error("report renders a DRC section for a skipped pre-flight")
	}
}

// TestDegradedCampaignConditional: when the validation campaign runs
// under a watchdog budget that aborts experiments, the assessment must
// surface the degradation — CampaignHealthy false, conservative counts
// in Validation, and a CONDITIONAL call-out in the rendered report —
// rather than silently grading on partial evidence.
func TestDegradedCampaignConditional(t *testing.T) {
	if testing.Short() {
		t.Skip("validation flow is slow")
	}
	opts := DefaultOptions()
	opts.Plan = inject.PlanConfig{TransientPerZone: 1, PermanentPerZone: 1, Seed: 1}
	opts.WideFaults = 2
	opts.Tolerance = 0.6
	opts.Supervision.CycleBudget = 2 // far below any injection cycle
	as, err := Run(flowDUT(t, true, 6), opts)
	if err != nil {
		t.Fatal(err)
	}
	v := as.Validation
	if v == nil {
		t.Fatal("no validation result")
	}
	if !v.Degraded || v.AbortedExps == 0 {
		t.Fatalf("degraded=%v abortedExps=%d, want a degraded campaign", v.Degraded, v.AbortedExps)
	}
	if as.CampaignHealthy() {
		t.Fatal("CampaignHealthy must be false for a degraded campaign")
	}
	rep := as.Report()
	for _, want := range []string{"degraded campaign", "CONDITIONAL"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}

	// Without supervision the same flow is healthy.
	opts.Supervision = inject.Supervision{}
	as, err = Run(flowDUT(t, true, 6), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !as.CampaignHealthy() {
		t.Fatal("unsupervised flow reported an unhealthy campaign")
	}
	if strings.Contains(as.Report(), "degraded campaign") {
		t.Error("healthy report renders the degraded call-out")
	}
}

// TestRunCanceledContext: a canceled Options.Ctx stops the flow at the
// next stage boundary with an error wrapping context.Canceled and no
// partial assessment — the cooperative-cancellation surface the serve
// daemon's DELETE /jobs/{id} rides on.
func TestRunCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.RunValidation = false
	opts.Ctx = ctx
	as, err := Run(flowDUT(t, true, 6), opts)
	if as != nil {
		t.Fatal("canceled run returned a partial assessment")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	if !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("err %q does not name the cancellation", err)
	}

	// A live context is inert: same flow, same result as no context.
	opts.Ctx = context.Background()
	as, err = Run(flowDUT(t, true, 6), opts)
	if err != nil || as == nil {
		t.Fatalf("live ctx: err %v", err)
	}
}

// TestDefaultEngineRunsLanes: at DefaultOptions the validation
// campaigns run on the 64-lane compiled kernel — every experiment in a
// lane batch, none falling back to the scalar path — and the report is
// byte-identical to the scalar engine's (Lanes 1).
func TestDefaultEngineRunsLanes(t *testing.T) {
	if testing.Short() {
		t.Skip("validation flow is slow")
	}
	for _, v2 := range []bool{false, true} {
		name := "v1"
		if v2 {
			name = "v2"
		}
		t.Run(name, func(t *testing.T) {
			opts := DefaultOptions()
			tel := telemetry.NewCampaign(nil, nil)
			opts.Telemetry = tel
			as, err := Run(flowDUT(t, v2, 6), opts)
			if err != nil {
				t.Fatal(err)
			}
			snap := tel.Snapshot()
			if snap.Batches == 0 {
				t.Fatal("default engine ran no lane batch")
			}
			if fb := snap.FallbackUnbatchable + snap.FallbackWallWatchdog + snap.FallbackBatchFailed; fb != 0 {
				t.Fatalf("default engine let %d experiment(s) fall back to the scalar path: %+v", fb, snap)
			}

			scalar := DefaultOptions()
			scalar.Lanes = 1
			sas, err := Run(flowDUT(t, v2, 6), scalar)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := as.Report(), sas.Report(); got != want {
				t.Fatalf("default-engine report differs from the scalar engine's:\n--- lanes 1\n%s\n--- default\n%s", want, got)
			}
		})
	}
}
