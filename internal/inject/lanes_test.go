package inject_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/inject"
	"repro/internal/netlist"
	"repro/internal/randckt"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
	"repro/internal/xrand"
	"repro/internal/zones"
)

// TestLanesNeutralityMatrix is the determinism contract of the
// word-parallel kernel: unless Lanes is 1 the campaign runs up to 64
// experiments per machine word, yet the merged report must stay
// byte-identical to the cold serial reference — across lane and worker
// counts, on both case studies (v2 has behavioral RAM peripherals and
// diagnostic machinery), across a mid-campaign checkpoint resume, and
// under cycle-budget aborts, where each lane must abort at its own
// serial cycle without perturbing its batch siblings.
func TestLanesNeutralityMatrix(t *testing.T) {
	for _, v2 := range []bool{false, true} {
		name := "v1"
		if v2 {
			name = "v2"
		}
		t.Run(name, func(t *testing.T) {
			target, g, plan := reducedCampaign(t, v2)
			ref, err := target.Run(g, plan)
			if err != nil {
				t.Fatal(err)
			}
			refRender := fmt.Sprintf("%#v", ref)

			// Warm golden: the realistic batched configuration shares one
			// snapshot restore across a whole batch.
			wtgt, wg := warmGolden(t, target, g, 8)
			// Lanes 0 is the engine default every front-end runs.
			for _, lanes := range []int{0, 1, 8, 64} {
				for _, workers := range []int{1, 8} {
					t.Run(fmt.Sprintf("lanes=%d/workers=%d", lanes, workers), func(t *testing.T) {
						tgt := *wtgt
						tgt.Lanes = lanes
						tgt.Workers = workers
						rep, err := tgt.Run(wg, plan)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(ref, rep) {
							t.Fatal("lane-batched report differs from cold serial reference")
						}
						if fmt.Sprintf("%#v", rep) != refRender {
							t.Fatal("lane-batched report renders differently from reference")
						}
					})
				}
			}

			t.Run("resume", func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "campaign.ckpt")
				tgt := *wtgt
				tgt.Lanes = 8
				tgt.Workers = 8
				tgt.Supervision = inject.Supervision{
					Checkpoint: path, CheckpointEvery: 1, StopAfter: len(plan) / 2,
				}
				if _, err := tgt.Run(wg, plan); !errors.Is(err, inject.ErrCampaignStopped) {
					t.Fatalf("interrupted run: got %v, want ErrCampaignStopped", err)
				}
				// Resume with a different lane width: the checkpoint is
				// lane-agnostic, only plan indices matter.
				tgt = *wtgt
				tgt.Lanes = 64
				tgt.Workers = 8
				tgt.Supervision = inject.Supervision{Checkpoint: path, Resume: true}
				rep, err := tgt.Run(wg, plan)
				if err != nil {
					t.Fatalf("resume: %v", err)
				}
				if !reflect.DeepEqual(ref, rep) {
					t.Fatal("lane-batched resumed report differs from reference")
				}
				if fmt.Sprintf("%#v", rep) != refRender {
					t.Fatal("lane-batched resumed report renders differently")
				}
			})

			t.Run("cycle-budget", func(t *testing.T) {
				budget := g.Trace.Cycles() / 2
				ctgt := *target
				ctgt.Supervision = inject.Supervision{CycleBudget: budget}
				cref, err := ctgt.Run(g, plan)
				if err != nil {
					t.Fatal(err)
				}
				if cref.AbortedCount() == 0 {
					t.Fatal("vacuous: no experiment hit the cycle budget")
				}
				// Every row aborts (a budget below the trace length always
				// fires), but at different cycles: lanes whose warm start
				// lies past the budget abort later than their siblings, so
				// the partial monitor fields pin per-lane retirement.
				for _, lanes := range []int{8, 64} {
					tgt := *wtgt
					tgt.Lanes = lanes
					tgt.Supervision = inject.Supervision{CycleBudget: budget}
					rep, err := tgt.Run(wg, plan)
					if err != nil {
						t.Fatalf("lanes=%d: %v", lanes, err)
					}
					if !reflect.DeepEqual(cref, rep) {
						t.Fatalf("lanes=%d: budget-abort report differs from cold serial", lanes)
					}
					if fmt.Sprintf("%#v", rep) != fmt.Sprintf("%#v", cref) {
						t.Fatalf("lanes=%d: budget-abort report renders differently", lanes)
					}
				}
			})
		})
	}
}

// TestLanesPropertyRandomCircuits compares 64-lane and serial campaign
// reports over random circuits, with the planner's fault mix extended
// by hand-written pin stuck-ats, bridging faults and a released
// (Duration > 0) stuck-at — the fault models BuildPlan never emits, so
// the lane arming/removal paths for every batchable kind are exercised.
func TestLanesPropertyRandomCircuits(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		n := randckt.Generate(randckt.Default(), seed)
		a, err := zones.Extract(n, zones.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		target := &inject.Target{
			Analysis:    a,
			NewInstance: func() (*sim.Simulator, error) { return sim.New(n) },
			Lanes:       1, // scalar reference engine
		}
		tr := workload.Random(xrand.New(seed+300), []string{"in"}, map[string]int{"in": 6}, 30)
		g, err := target.RunGolden(tr)
		if err != nil {
			t.Fatal(err)
		}
		plan := inject.BuildPlan(a, g, inject.PlanConfig{TransientPerZone: 2, PermanentPerZone: 2, Seed: seed})
		plan = append(plan, inject.WidePlan(a, g, 3, seed)...)
		if len(plan) == 0 {
			continue
		}
		g0, g1 := n.Gates[0], n.Gates[len(n.Gates)/2]
		plan = append(plan,
			inject.Injection{Zone: 0, Fault: faults.PinSA(g0.ID, 0, true), Cycle: 2, Mode: "pin"},
			inject.Injection{Zone: 0, Fault: faults.PinSA(g1.ID, len(g1.Inputs)-1, false), Cycle: 9, Duration: 5, Mode: "pin"},
			inject.Injection{Zone: 0, Fault: faults.NetBridge(g0.Output, g1.Output, true), Cycle: 4, Mode: "bridge"},
			inject.Injection{Zone: 0, Fault: faults.NetBridge(g1.Output, g0.Output, false), Cycle: 6, Duration: 8, Mode: "bridge"},
			inject.Injection{Zone: 0, Fault: faults.NetSA(g1.Output, true), Cycle: 3, Duration: 4, Mode: "released"},
		)
		serial, err := target.Run(g, plan)
		if err != nil {
			t.Fatal(err)
		}
		wtgt, wg := warmGolden(t, target, g, 7)
		wtgt.Lanes = 64
		laned, err := wtgt.Run(wg, plan)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, laned) {
			t.Fatalf("seed %d: 64-lane verdicts differ from serial", seed)
		}
	}
}

// TestLanesTelemetryNeutrality extends the telemetry out-of-band
// contract to the batched path: with lanes on and the full telemetry
// stack attached, the report stays byte-identical, the journal still
// carries one exp_finish per plan row, and the new batch counters
// actually observed the lane scheduler.
func TestLanesTelemetryNeutrality(t *testing.T) {
	target, g, plan := reducedCampaign(t, true)
	ref, err := target.Run(g, plan)
	if err != nil {
		t.Fatal(err)
	}
	wtgt, wg := warmGolden(t, target, g, 8)
	tgt, tel, journal := instrumented(wtgt)
	tgt.Lanes = 16
	tgt.Workers = 8
	rep, err := tgt.Run(wg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, rep) {
		t.Fatal("instrumented lane-batched report differs from reference")
	}
	if fmt.Sprintf("%#v", rep) != fmt.Sprintf("%#v", ref) {
		t.Fatal("instrumented lane-batched report renders differently")
	}
	if err := tel.Journal.Close(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(journal.String(), `"ev":"exp_finish"`); n != len(plan) {
		t.Fatalf("journal has %d exp_finish events, want %d", n, len(plan))
	}
	batches := tel.Registry.Counter("batches").Load()
	if batches == 0 {
		t.Fatal("batches counter never incremented — the lane scheduler did not run")
	}
	occ := tel.Registry.Histogram("lane_occupancy")
	if occ.Count() != batches {
		t.Fatalf("lane_occupancy has %d observations, want %d (one per batch)", occ.Count(), batches)
	}
	if occ.Sum() < batches {
		t.Fatalf("lane_occupancy sum %d implausibly low for %d batches", occ.Sum(), batches)
	}
	if live := tel.Registry.Gauge("lanes_active").Load(); live != 0 {
		t.Fatalf("lanes_active gauge is %d after the campaign, want 0", live)
	}
}

// TestLaneFallbackCounters pins the lane-path decision counter: a
// default-engine campaign batches every experiment, and each way of
// leaving the lane path — an unbatchable fault model, a failed batch,
// an armed wall-clock watchdog — is counted under its own cause, while
// the report stays identical to the scalar engine's. The journal's
// campaign_start event carries the effective lane width.
func TestLaneFallbackCounters(t *testing.T) {
	target, g, plan := reducedCampaign(t, true)
	fallbacks := func(tel *telemetry.Campaign) map[string]int64 {
		out := map[string]int64{}
		for _, cause := range []string{telemetry.FallbackUnbatchable, telemetry.FallbackWallWatchdog, telemetry.FallbackBatchFailed} {
			out[cause] = tel.Registry.Counter("lane_fallback_" + cause).Load()
		}
		return out
	}
	run := func(t *testing.T, plan []inject.Injection, sup inject.Supervision) (*inject.Report, *telemetry.Campaign, string) {
		t.Helper()
		ref := *target
		ref.Supervision = sup
		want, err := ref.Run(g, plan)
		if err != nil {
			t.Fatal(err)
		}
		tgt, tel, journal := instrumented(target)
		tgt.Lanes = 0
		tgt.Supervision = sup
		rep, err := tgt.Run(g, plan)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, rep) {
			t.Fatal("default-engine report differs from the scalar engine's")
		}
		if err := tel.Journal.Close(); err != nil {
			t.Fatal(err)
		}
		return rep, tel, journal.String()
	}

	t.Run("default", func(t *testing.T) {
		_, tel, journal := run(t, plan, inject.Supervision{})
		if tel.Registry.Counter("batches").Load() == 0 {
			t.Fatal("default engine ran no lane batch")
		}
		want := map[string]int64{"unbatchable": 0, "wall_watchdog": 0, "batch_failed": 0}
		if got := fallbacks(tel); !reflect.DeepEqual(got, want) {
			t.Fatalf("fallbacks %v, want %v", got, want)
		}
		if !strings.Contains(journal, `"lanes":64`) {
			t.Fatalf("campaign_start does not record the 64-lane width:\n%s", firstLine(journal))
		}
	})
	t.Run("unbatchable", func(t *testing.T) {
		// A delay fault on a gate pin has no lane implementation.
		odd := append([]inject.Injection(nil), plan...)
		odd[1].Fault = faults.Fault{Kind: faults.DelayX, Site: faults.SitePin, Net: 1, Net2: netlist.InvalidNet}
		_, tel, _ := run(t, odd, inject.Supervision{})
		want := map[string]int64{"unbatchable": 1, "wall_watchdog": 0, "batch_failed": 0}
		if got := fallbacks(tel); !reflect.DeepEqual(got, want) {
			t.Fatalf("fallbacks %v, want %v", got, want)
		}
	})
	t.Run("batch_failed", func(t *testing.T) {
		rep, tel, _ := run(t, poisonPlan(plan, 3), inject.Supervision{Quarantine: true})
		if len(rep.Quarantined) != 1 {
			t.Fatalf("quarantined %d rows, want 1", len(rep.Quarantined))
		}
		got := fallbacks(tel)
		if got["batch_failed"] < 1 || got["unbatchable"] != 0 || got["wall_watchdog"] != 0 {
			t.Fatalf("fallbacks %v, want only batch_failed > 0", got)
		}
	})
	t.Run("wall_watchdog", func(t *testing.T) {
		frozen := time.Unix(0, 0)
		sup := inject.Supervision{WallBudget: time.Hour, Clock: func() time.Time { return frozen }}
		_, tel, journal := run(t, plan, sup)
		want := map[string]int64{"unbatchable": 0, "wall_watchdog": int64(len(plan)), "batch_failed": 0}
		if got := fallbacks(tel); !reflect.DeepEqual(got, want) {
			t.Fatalf("fallbacks %v, want %v", got, want)
		}
		if tel.Registry.Counter("batches").Load() != 0 {
			t.Fatal("lane batches ran under an armed wall watchdog")
		}
		if !strings.Contains(journal, `"lanes":1,`) {
			t.Fatalf("campaign_start does not record the scalar width:\n%s", firstLine(journal))
		}
	})
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
