package inject_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faultsim"
	"repro/internal/frcpu"
	"repro/internal/inject"
	"repro/internal/memsys"
	"repro/internal/netlist"
	"repro/internal/randckt"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xrand"
	"repro/internal/zones"
)

// interpretedToggle is the toggle-coverage oracle: the same measure as
// Target.ToggleCoverage, computed on the interpreted simulator — a
// fresh instance replays the trace, and every net's settled level is
// tallied before the first cycle and after every clock edge.
func interpretedToggle(t *inject.Target, tr *workload.Trace) (faultsim.ToggleReport, error) {
	s, err := t.NewInstance()
	if err != nil {
		return faultsim.ToggleReport{}, err
	}
	n := t.Analysis.N
	seen0 := make([]uint64, len(n.Nets))
	seen1 := make([]uint64, len(n.Nets))
	record := func() {
		for id := range n.Nets {
			switch s.Net(netlist.NetID(id)) {
			case sim.V0:
				seen0[id] = 1
			case sim.V1:
				seen1[id] = 1
			}
		}
	}
	record()
	for c := 0; c < tr.Cycles(); c++ {
		tr.ApplyTo(s, c)
		s.Eval()
		s.Step()
		record()
	}
	return faultsim.TallyToggles(n, seen0, seen1), nil
}

// TestToggleCoverageDifferential: the compiled toggle pass must return
// exactly the interpreted oracle's report — covered and eligible counts
// and the full untoggled-net list — on every case-study design with
// its peripherals, and on random peripheral-free circuits.
func TestToggleCoverageDifferential(t *testing.T) {
	check := func(t *testing.T, target *inject.Target, tr *workload.Trace) {
		t.Helper()
		want, err := interpretedToggle(target, tr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := target.ToggleCoverage(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("compiled toggle report differs from the interpreted oracle:\n got covered %d/%d, %d untoggled\nwant covered %d/%d, %d untoggled",
				got.Covered, got.Eligible, len(got.Untoggled), want.Covered, want.Eligible, len(want.Untoggled))
		}
		if want.Eligible == 0 || want.Covered == 0 {
			t.Fatalf("vacuous comparison: covered %d of %d eligible", want.Covered, want.Eligible)
		}
	}
	flows := []struct {
		name string
		dut  func(*testing.T) core.DUT
	}{
		{"v1", func(t *testing.T) core.DUT { return memsysDUT(t, memsys.V1Config()) }},
		{"v2", func(t *testing.T) core.DUT { return memsysDUT(t, memsys.V2Config()) }},
		{"cpu", func(t *testing.T) core.DUT { return cpuDUT(t, frcpu.PlainConfig()) }},
		{"cpu-lockstep", func(t *testing.T) core.DUT { return cpuDUT(t, frcpu.LockstepConfig()) }},
	}
	for _, fl := range flows {
		t.Run(fl.name, func(t *testing.T) {
			dut := fl.dut(t)
			a, err := dut.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			check(t, dut.Target(a), dut.CoverageTrace())
		})
	}
	t.Run("randckt", func(t *testing.T) {
		for seed := uint64(1); seed <= 8; seed++ {
			n := randckt.Generate(randckt.Default(), seed)
			a, err := zones.Extract(n, zones.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			target := &inject.Target{
				Analysis:    a,
				NewInstance: func() (*sim.Simulator, error) { return sim.New(n) },
			}
			tr := workload.Random(xrand.New(seed+500), []string{"in"}, map[string]int{"in": 6}, 40)
			check(t, target, tr)
		}
	})
}

// TestToggleCoverageUnknownPort: a trace port the netlist lacks is an
// error, never a silently partial measurement.
func TestToggleCoverageUnknownPort(t *testing.T) {
	n := randckt.Generate(randckt.Default(), 1)
	a, err := zones.Extract(n, zones.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	target := &inject.Target{
		Analysis:    a,
		NewInstance: func() (*sim.Simulator, error) { return sim.New(n) },
	}
	tr := workload.Random(xrand.New(1), []string{"nope"}, map[string]int{"nope": 2}, 4)
	if _, err := target.ToggleCoverage(tr); err == nil {
		t.Fatal("ToggleCoverage accepted a trace port the netlist does not have")
	}
}

func memsysDUT(t *testing.T, cfg memsys.Config) core.DUT {
	t.Helper()
	d, err := memsys.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return memsys.NewFlowDUT(d)
}

func cpuDUT(t *testing.T, cfg frcpu.Config) core.DUT {
	t.Helper()
	d, err := frcpu.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return frcpu.NewFlowDUT(d)
}
