package faultsim

import (
	"repro/internal/netlist"
	"repro/internal/simc"
	"repro/internal/workload"
)

// ToggleReport is the workload-efficiency measure of the validation flow
// (Section 5b): which nets the workload exercised at both logic levels.
type ToggleReport struct {
	// Covered nets saw both 0 and 1 during the workload.
	Covered int
	// Eligible excludes constant nets, which can never toggle.
	Eligible int
	// Untoggled lists eligible nets that never saw both levels.
	Untoggled []netlist.NetID
}

// Coverage returns covered/eligible in [0,1]; 1 for empty designs.
func (t ToggleReport) Coverage() float64 {
	if t.Eligible == 0 {
		return 1
	}
	return float64(t.Covered) / float64(t.Eligible)
}

// Passes applies the validation threshold (the paper's default is 99%).
func (t ToggleReport) Passes(threshold float64) bool {
	return t.Coverage() >= threshold
}

// ToggleCoverage runs the golden design against the trace and measures
// per-net toggle coverage. An unknown trace port is an error: silently
// skipping it would measure coverage of a partially-driven design and
// inflate the Section 5b workload-efficiency figure.
func (e *Engine) ToggleCoverage(tr *workload.Trace) (ToggleReport, error) {
	n := e.n
	portNets, err := e.resolvePorts(tr)
	if err != nil {
		return ToggleReport{}, err
	}
	seen0 := make([]uint64, len(n.Nets))
	seen1 := make([]uint64, len(n.Nets))
	// A faultless binary machine: every lane carries the same golden
	// circuit, and TallyToggles reads lane 0.
	m := simc.NewBinMachine(e.prog)
	m.ResetState()
	for cycle := 0; cycle < tr.Cycles(); cycle++ {
		vec := tr.Vecs[cycle]
		for pi, nets := range portNets {
			for bit, id := range nets {
				if vec[pi]>>uint(bit)&1 == 1 {
					m.DriveInput(id, ^uint64(0))
				} else {
					m.DriveInput(id, 0)
				}
			}
		}
		m.Eval()
		for id := range n.Nets {
			v := m.Val(netlist.NetID(id))
			seen1[id] |= v
			seen0[id] |= ^v
		}
		m.Step()
	}
	return TallyToggles(n, seen0, seen1), nil
}

// TallyToggles builds the toggle report from per-net level sightings:
// bit 0 of seen0[id] / seen1[id] is set when lane 0 of a simulation saw
// net id at 0 / 1. Constant nets and nets with no driver (orphaned by
// pruning; no silicon behind them) are not eligible.
func TallyToggles(n *netlist.Netlist, seen0, seen1 []uint64) ToggleReport {
	rep := ToggleReport{}
	for id := range n.Nets {
		nid := netlist.NetID(id)
		if _, isConst := n.IsConst(nid); isConst {
			continue
		}
		if !n.IsDriven(nid) {
			continue
		}
		rep.Eligible++
		if seen0[id]&seen1[id]&1 != 0 {
			rep.Covered++
		} else {
			rep.Untoggled = append(rep.Untoggled, nid)
		}
	}
	return rep
}
