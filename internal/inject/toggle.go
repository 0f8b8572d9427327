package inject

import (
	"io"

	"repro/internal/faultsim"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/simc"
	"repro/internal/workload"
)

// ToggleCoverage measures the workload-efficiency metric of Section 5b
// on the full DUT, behavioral peripherals included: the fraction of
// nets the workload drove to both logic levels. It replays the trace on
// lane 0 of a compiled machine (the fresh instance's state and
// peripherals, hosted per clock edge like a campaign lane) and
// OR-accumulates each net's settled planes after every edge.
func (t *Target) ToggleCoverage(tr *workload.Trace) (faultsim.ToggleReport, error) {
	prog, err := t.program()
	if err != nil {
		return faultsim.ToggleReport{}, err
	}
	ports, err := tracePorts(prog, tr)
	if err != nil {
		return faultsim.ToggleReport{}, err
	}
	s, err := t.NewInstance()
	if err != nil {
		return faultsim.ToggleReport{}, err
	}
	m := simc.NewMachine(prog)
	sn := s.Snapshot()
	m.LoadLane(0, sn.FFValues(), sn.ExtValues())
	host := hostLane(m, 0, s.Peripherals())
	tick := func() {
		host.sample()
		host.commit()
	}
	nets := len(t.Analysis.N.Nets)
	seen0 := make([]uint64, nets)
	seen1 := make([]uint64, nets)
	record := func() {
		for id := range seen0 {
			v, x := m.NetPlanes(netlist.NetID(id))
			seen1[id] |= v &^ x
			seen0[id] |= ^v &^ x
		}
	}
	m.Eval()
	record()
	for c := 0; c < tr.Cycles(); c++ {
		driveVector(m, ports, tr.Vecs[c])
		m.Eval()
		m.Step(tick)
		record()
	}
	return faultsim.TallyToggles(t.Analysis.N, seen0, seen1), nil
}

// RecordVCD replays the workload (golden when inj is nil, faulty
// otherwise) and streams a waveform of all ports and register outputs —
// the debugging view of what an injected fault actually did.
func (t *Target) RecordVCD(g *Golden, inj *Injection, w io.Writer) error {
	s, err := t.NewInstance()
	if err != nil {
		return err
	}
	rec := sim.NewVCDRecorder(s, w, nil)
	tr := g.Trace
	for c := 0; c < tr.Cycles(); c++ {
		tr.ApplyTo(s, c)
		s.Eval()
		s.Step()
		if inj != nil {
			if c == inj.Cycle {
				inj.Fault.Apply(s)
			}
			if inj.Duration > 0 && c == inj.Cycle+inj.Duration {
				inj.Fault.Remove(s)
			}
		}
		rec.Sample()
	}
	return rec.Close()
}

// AdjustedToggle recomputes the toggle coverage with diagnostic-only
// logic excluded from the eligible set: redundancy comparators and alarm
// conditioning cannot change in a fault-free run by construction (their
// coverage is credited by fault injection instead, Section 5c). It
// returns the adjusted coverage and the number of excluded nets.
func (t *Target) AdjustedToggle(rep faultsim.ToggleReport) (float64, int) {
	reach := t.Analysis.FunctionalReachNets()
	excluded := 0
	for _, id := range rep.Untoggled {
		if !reach[id] {
			excluded++
		}
	}
	eligible := rep.Eligible - excluded
	if eligible <= 0 {
		return 1, excluded
	}
	return float64(rep.Covered) / float64(eligible), excluded
}
