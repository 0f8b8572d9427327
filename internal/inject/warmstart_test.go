package inject_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/inject"
	"repro/internal/randckt"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xrand"
	"repro/internal/zones"
)

// warmGolden re-runs the golden simulation with a snapshot cadence.
// The golden run is deterministic, so the traces match the cold golden
// exactly; only the snapshots differ.
func warmGolden(t *testing.T, target *inject.Target, g *inject.Golden, every int) (*inject.Target, *inject.Golden) {
	t.Helper()
	tgt := *target
	tgt.SnapshotEvery = every
	gw, err := tgt.RunGolden(g.Trace)
	if err != nil {
		t.Fatal(err)
	}
	return &tgt, gw
}

// TestWarmStartNeutralityMatrix is the determinism contract of the
// golden-snapshot warm start: with snapshots on, the campaign report
// must stay byte-identical to the cold-start serial reference — across
// worker counts, on both case studies, across a mid-campaign checkpoint
// resume, and under cycle-budget aborts (where the early-exit is
// disabled and the abort point must land on the same trace cycle).
func TestWarmStartNeutralityMatrix(t *testing.T) {
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

			wtgt, wg := warmGolden(t, target, g, 8)
			for _, workers := range []int{1, 8} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					tgt := *wtgt
					tgt.Workers = workers
					rep, err := tgt.Run(wg, plan)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(ref, rep) {
						t.Fatal("warm-start report differs from cold serial reference")
					}
					if fmt.Sprintf("%#v", rep) != refRender {
						t.Fatal("warm-start report renders differently from reference")
					}
				})
			}

			t.Run("resume", func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "campaign.ckpt")
				tgt := *wtgt
				tgt.Workers = 8
				tgt.Supervision = inject.Supervision{
					Checkpoint: path, CheckpointEvery: 1, StopAfter: len(plan) / 2,
				}
				if _, err := tgt.Run(wg, plan); !errors.Is(err, inject.ErrCampaignStopped) {
					t.Fatalf("interrupted run: got %v, want ErrCampaignStopped", err)
				}
				tgt = *wtgt
				tgt.Workers = 8
				tgt.Supervision = inject.Supervision{Checkpoint: path, Resume: true}
				rep, err := tgt.Run(wg, plan)
				if err != nil {
					t.Fatalf("resume: %v", err)
				}
				if !reflect.DeepEqual(ref, rep) {
					t.Fatal("warm-start resumed report differs from reference")
				}
				if fmt.Sprintf("%#v", rep) != refRender {
					t.Fatal("warm-start resumed report renders differently")
				}
			})

			t.Run("cycle-budget", func(t *testing.T) {
				// A budget below the trace length aborts every experiment
				// at the budget cycle. The warm start skips past that
				// cycle for late injections, so this pins the translated
				// abort: charged prefix, identical Aborted rows.
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
				tgt := *wtgt
				tgt.Supervision = inject.Supervision{CycleBudget: budget}
				for _, workers := range []int{1, 8} {
					tgt.Workers = workers
					rep, err := tgt.Run(wg, plan)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					if !reflect.DeepEqual(cref, rep) {
						t.Fatalf("workers=%d: warm-start budget-abort report differs from cold", workers)
					}
					if fmt.Sprintf("%#v", rep) != fmt.Sprintf("%#v", cref) {
						t.Fatalf("workers=%d: budget-abort report renders differently", workers)
					}
				}
			})
		})
	}
}

// TestWarmStartPropertyRandomCircuits compares warm and cold campaign
// reports over random circuits — designs with no peripherals and
// arbitrary zone structure — with a snapshot cadence that does not
// divide the trace length.
func TestWarmStartPropertyRandomCircuits(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
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
		tr := workload.Random(xrand.New(seed+200), []string{"in"}, map[string]int{"in": 6}, 30)
		g, err := target.RunGolden(tr)
		if err != nil {
			t.Fatal(err)
		}
		plan := inject.BuildPlan(a, g, inject.PlanConfig{TransientPerZone: 1, PermanentPerZone: 1, Seed: seed})
		plan = append(plan, inject.WidePlan(a, g, 3, seed)...)
		if len(plan) == 0 {
			continue
		}
		cold, err := target.Run(g, plan)
		if err != nil {
			t.Fatal(err)
		}
		wtgt, wg := warmGolden(t, target, g, 7)
		warm, err := wtgt.Run(wg, plan)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold, warm) {
			t.Fatalf("seed %d: warm verdicts differ from cold", seed)
		}
	}
}

// TestWarmStartSimulatesFewerCycles guards the matrix against vacuity:
// if snapshots were silently never captured (or never restored), the
// neutrality tests would still pass while the optimization did nothing.
// Telemetry counts cycles actually simulated, so warm < cold proves the
// prefix was really skipped.
func TestWarmStartSimulatesFewerCycles(t *testing.T) {
	target, g, plan := reducedCampaign(t, true)
	coldTgt, coldTel, _ := instrumented(target)
	if _, err := coldTgt.Run(g, plan); err != nil {
		t.Fatal(err)
	}
	wtgt, wg := warmGolden(t, target, g, 8)
	warmTgt, warmTel, _ := instrumented(wtgt)
	if _, err := warmTgt.Run(wg, plan); err != nil {
		t.Fatal(err)
	}
	cold, warm := coldTel.Snapshot().SimCycles, warmTel.Snapshot().SimCycles
	if warm >= cold {
		t.Fatalf("warm start simulated %d cycles, cold %d — no cycles skipped", warm, cold)
	}
	t.Logf("simulated cycles: cold=%d warm=%d (%.2fx)", cold, warm, float64(cold)/float64(warm))
}
