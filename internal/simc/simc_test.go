package simc_test

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/randckt"
	"repro/internal/sim"
	"repro/internal/simc"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// laneScenario is one lane's fault life: a fault, its injection cycle
// and an optional removal delay (0 = permanent).
type laneScenario struct {
	active bool
	f      faults.Fault
	cycle  int
	dur    int
}

// TestDifferentialRandomCircuits is the fuzz oracle for the compiled
// kernel: random circuits spanning fan-in arities and FF counts,
// simulated cycle-by-cycle by the serial three-valued interpreter and
// by one Machine lane each, under per-lane fault scenarios covering
// net/pin stuck-ats, delay-X glitches, FF flips and bridges, with
// sporadic X drives on the inputs. Every gate output and every FF
// state bit — including X-ness — must match on every cycle.
func TestDifferentialRandomCircuits(t *testing.T) {
	cfgs := []randckt.Config{
		{Inputs: 6, Gates: 30, FFs: 0, Outputs: 3, MaxArity: 2},
		{Inputs: 6, Gates: 40, FFs: 6, Outputs: 4, MaxArity: 3},
		{Inputs: 8, Gates: 60, FFs: 8, Outputs: 4, MaxArity: 4},
		{Inputs: 4, Gates: 25, FFs: 3, Outputs: 2, MaxArity: 5},
	}
	for ci, cfg := range cfgs {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("cfg%d_seed%d", ci, seed), func(t *testing.T) {
				diffOneCircuit(t, cfg, seed)
			})
		}
	}
}

func diffOneCircuit(t *testing.T, cfg randckt.Config, seed uint64) {
	n := randckt.Generate(cfg, seed)
	prog, err := simc.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	m := simc.NewMachine(prog)
	rng := xrand.New(seed * 977)

	const lanes = 64
	const cycles = 45

	randNet := func() netlist.NetID { return netlist.NetID(rng.Intn(len(n.Nets))) }
	scen := make([]laneScenario, lanes)
	netRefs := make([]simc.ForceRef, lanes)
	pinRefs := make([]simc.ForceRef, lanes)
	bridgeRefs := make([]simc.BridgeRef, lanes)
	sims := make([]*sim.Simulator, lanes)
	for lane := 0; lane < lanes; lane++ {
		sims[lane], err = sim.New(n)
		if err != nil {
			t.Fatal(err)
		}
		sc := &scen[lane]
		sc.cycle = rng.Intn(cycles - 5)
		if rng.Intn(2) == 0 {
			sc.dur = 1 + rng.Intn(6)
		}
		sc.active = true
		switch lane % 6 {
		case 0: // golden lane
			sc.active = false
		case 1:
			sc.f = faults.NetSA(randNet(), rng.Bool())
			netRefs[lane] = m.AddNetForce(sc.f.Net)
		case 2:
			g := &n.Gates[rng.Intn(len(n.Gates))]
			sc.f = faults.PinSA(g.ID, rng.Intn(len(g.Inputs)), rng.Bool())
			pinRefs[lane], err = m.AddPinForce(sc.f.Gate, sc.f.Pin)
			if err != nil {
				t.Fatal(err)
			}
		case 3:
			sc.f = faults.NetDelay(randNet())
			sc.dur = 1 + rng.Intn(4)
			netRefs[lane] = m.AddNetForce(sc.f.Net)
		case 4:
			if len(n.FFs) == 0 {
				sc.f = faults.NetSA(randNet(), rng.Bool())
				netRefs[lane] = m.AddNetForce(sc.f.Net)
				sc.dur = 0
			} else {
				sc.f = faults.FFFlip(netlist.FFID(rng.Intn(len(n.FFs))))
				sc.dur = 0
			}
		case 5:
			a, b := randNet(), randNet()
			for b == a {
				b = randNet()
			}
			sc.f = faults.NetBridge(a, b, rng.Bool())
			bridgeRefs[lane] = m.AddBridge(a, b, sc.f.Kind == faults.BridgeAND)
		}
	}
	for lane := 0; lane < lanes; lane++ {
		sn := sims[lane].Snapshot()
		m.LoadLane(lane, sn.FFValues(), sn.ExtValues())
	}
	m.Eval()
	compareLanes(t, n, m, sims, -1)

	inPort, _ := n.FindInput("in")
	for c := 0; c < cycles; c++ {
		word := rng.Bits(cfg.Inputs)
		xbit := -1
		if rng.Intn(4) == 0 {
			xbit = rng.Intn(cfg.Inputs)
		}
		for lane := 0; lane < lanes; lane++ {
			sims[lane].SetInput("in", word)
			if xbit >= 0 {
				sims[lane].SetInputBit("in", xbit, sim.VX)
			}
		}
		for bit, id := range inPort.Nets {
			v := sim.FromBool(word>>uint(bit)&1 == 1)
			if bit == xbit {
				v = sim.VX
			}
			m.DriveInput(id, v)
		}
		for lane := 0; lane < lanes; lane++ {
			sims[lane].Eval()
			sims[lane].Step()
		}
		m.Eval()
		m.Step(nil)

		dirty := false
		for lane := 0; lane < lanes; lane++ {
			sc := &scen[lane]
			if !sc.active {
				continue
			}
			bit := uint64(1) << uint(lane)
			if c == sc.cycle {
				sc.f.Apply(sims[lane])
				applyToMachine(m, sc.f, bit, netRefs[lane], pinRefs[lane], bridgeRefs[lane])
				dirty = true
			}
			if sc.dur > 0 && c == sc.cycle+sc.dur {
				sc.f.Remove(sims[lane])
				removeFromMachine(m, sc.f, bit, netRefs[lane], pinRefs[lane], bridgeRefs[lane])
				dirty = true
			}
		}
		if dirty {
			m.Eval()
		}
		compareLanes(t, n, m, sims, c)
		if t.Failed() {
			return
		}
	}
}

func applyToMachine(m *simc.Machine, f faults.Fault, lanes uint64, netRef, pinRef simc.ForceRef, bridgeRef simc.BridgeRef) {
	switch f.Kind {
	case faults.SA0, faults.SA1:
		v := sim.FromBool(f.Kind == faults.SA1)
		if f.Site == faults.SitePin {
			m.SetForce(pinRef, lanes, v)
		} else {
			m.SetForce(netRef, lanes, v)
		}
	case faults.DelayX:
		m.SetForce(netRef, lanes, sim.VX)
	case faults.Flip:
		m.FlipFF(f.FF, lanes)
	case faults.BridgeAND, faults.BridgeOR:
		m.ArmBridge(bridgeRef, lanes)
	}
}

func removeFromMachine(m *simc.Machine, f faults.Fault, lanes uint64, netRef, pinRef simc.ForceRef, bridgeRef simc.BridgeRef) {
	switch f.Kind {
	case faults.SA0, faults.SA1:
		if f.Site == faults.SitePin {
			m.ClearForce(pinRef, lanes)
		} else {
			m.ClearForce(netRef, lanes)
		}
	case faults.DelayX:
		m.ClearForce(netRef, lanes)
	case faults.BridgeAND, faults.BridgeOR:
		m.DisarmBridge(bridgeRef, lanes)
	}
}

func compareLanes(t *testing.T, n *netlist.Netlist, m *simc.Machine, sims []*sim.Simulator, cycle int) {
	t.Helper()
	for lane := range sims {
		s := sims[lane]
		for gi := range n.Gates {
			id := n.Gates[gi].Output
			if got, want := m.NetValue(lane, id), s.Net(id); got != want {
				t.Errorf("cycle %d lane %d: net %d (%s) = %v, serial %v",
					cycle, lane, id, n.NetName(id), got, want)
				return
			}
		}
		for fi := range n.FFs {
			id := netlist.FFID(fi)
			if got, want := m.FFValue(lane, id), s.FFState(id); got != want {
				t.Errorf("cycle %d lane %d: FF %d (%s) = %v, serial %v",
					cycle, lane, id, n.FFs[fi].Name, got, want)
				return
			}
		}
	}
}

// TestDifferentialEnableFF covers the enabled-FF step formula the
// random circuits cannot reach (randckt registers are always-enabled),
// including the unknown-enable case: state holds only when D agrees
// with a known state, else becomes X.
func TestDifferentialEnableFF(t *testing.T) {
	n := netlist.New("enff")
	d := n.AddInput("d", 2)
	en := n.AddInput("en", 1)[0]
	inv := n.AddGate(netlist.NOT, "G", d[1])
	_, q0 := n.AddFF("r0", "R", d[0], en, false)
	_, q1 := n.AddFF("r1", "R", inv, en, true)
	x := n.AddGate(netlist.XOR, "G", q0, q1)
	n.AddOutput("out", []netlist.NetID{x})
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	prog, err := simc.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	m := simc.NewMachine(prog)
	s, err := sim.New(n)
	if err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	for lane := 0; lane < 1; lane++ {
		m.LoadLane(lane, sn.FFValues(), sn.ExtValues())
	}
	m.Eval()

	rng := xrand.New(42)
	dPort, _ := n.FindInput("d")
	for c := 0; c < 60; c++ {
		dw := rng.Bits(2)
		ev := sim.FromBool(rng.Bool())
		switch rng.Intn(3) {
		case 0:
			ev = sim.VX
		}
		s.SetInput("d", dw)
		if rng.Intn(3) == 0 {
			s.SetInputBit("d", 0, sim.VX)
			m.DriveInput(dPort.Nets[0], sim.VX)
		} else {
			m.DriveInput(dPort.Nets[0], sim.FromBool(dw&1 == 1))
		}
		m.DriveInput(dPort.Nets[1], sim.FromBool(dw>>1&1 == 1))
		s.SetInputBit("en", 0, ev)
		m.DriveInput(en, ev)

		s.Eval()
		s.Step()
		m.Eval()
		m.Step(nil)
		for fi := range n.FFs {
			id := netlist.FFID(fi)
			if got, want := m.FFValue(0, id), s.FFState(id); got != want {
				t.Fatalf("cycle %d: FF %d = %v, serial %v", c, fi, got, want)
			}
		}
		if got, want := m.NetValue(0, x), s.Net(x); got != want {
			t.Fatalf("cycle %d: out = %v, serial %v", c, got, want)
		}
	}
}

// TestBinMachineMatchesSerial drives the binary kernel and the serial
// interpreter with the same binary workload and no faults; every lane
// must reproduce the serial run bit-for-bit.
func TestBinMachineMatchesSerial(t *testing.T) {
	cfg := randckt.Default()
	n := randckt.Generate(cfg, 9)
	prog, err := simc.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	bm := simc.NewBinMachine(prog)
	bm.ResetState()
	s, err := sim.New(n)
	if err != nil {
		t.Fatal(err)
	}
	// Serial FFs reset through Reset(); ext starts X, so step once with
	// driven inputs before comparing (binary machines have no X plane).
	rng := xrand.New(3)
	tr := workload.Random(rng, []string{"in"}, map[string]int{"in": cfg.Inputs}, 30)
	inPort, _ := n.FindInput("in")
	for c := 0; c < tr.Cycles(); c++ {
		tr.ApplyTo(s, c)
		word := tr.Vecs[c][0]
		for bit, id := range inPort.Nets {
			w := uint64(0)
			if word>>uint(bit)&1 == 1 {
				w = ^uint64(0)
			}
			bm.DriveInput(id, w)
		}
		s.Eval()
		bm.Eval()
		for gi := range n.Gates {
			id := n.Gates[gi].Output
			want := s.Net(id)
			if want == sim.VX {
				continue // uninitialized state cone; binary lanes have no X
			}
			got := bm.Val(id)
			if got != 0 && got != ^uint64(0) {
				t.Fatalf("cycle %d net %d: lanes disagree: %#x", c, id, got)
			}
			if (got&1 == 1) != (want == sim.V1) {
				t.Fatalf("cycle %d net %d: bin %v, serial %v", c, id, got&1, want)
			}
		}
		s.Step()
		bm.Step()
	}
}

// TestEvalSkipNeverHidesAChange: Eval returns at once on a machine
// nothing changed since the last settle, so every mutator must mark the
// machine for re-evaluation. Each step below changes one thing that
// flips the output y = in0 XOR q in lane 0, and Eval must show it;
// re-driving an input with the value it already has must not.
func TestEvalSkipNeverHidesAChange(t *testing.T) {
	n := netlist.New("lazy")
	in := n.AddInput("in", 2)
	ff, q := n.AddFF("r", "R", in[1], netlist.InvalidNet, false)
	y := n.AddGate(netlist.XOR, "G", in[0], q)
	n.AddOutput("y", []netlist.NetID{y})
	prog, err := simc.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	m := simc.NewMachine(prog)
	force := m.AddNetForce(q)
	bridge := m.AddBridge(in[0], q, true)
	ext := make([]sim.Value, len(n.Nets))
	ext[in[0]] = sim.V1

	steps := []struct {
		name   string
		mutate func()
		want   sim.Value
	}{
		{"first settle", func() {}, sim.V0},
		{"same input value", func() { m.DriveInput(in[0], sim.V0) }, sim.V0},
		{"DriveInput", func() { m.DriveInput(in[0], sim.V1) }, sim.V1},
		{"FlipFF", func() { m.FlipFF(ff, 1) }, sim.V0},
		{"SetForce", func() { m.SetForce(force, 1, sim.V0) }, sim.V1},
		{"ClearForce", func() { m.ClearForce(force, 1) }, sim.V0},
		{"SetExt", func() { m.SetExt(0, in[0], sim.V0) }, sim.V1},
		{"LoadLane", func() { m.LoadLane(0, []sim.Value{sim.V0}, ext) }, sim.V1},
		{"ArmBridge", func() { m.ArmBridge(bridge, 1) }, sim.V0},
		{"DisarmBridge", func() { m.DisarmBridge(bridge, 1) }, sim.V1},
		{"Step", func() { m.DriveInput(in[1], sim.V1); m.Eval(); m.Step(nil) }, sim.V0},
		{"X input", func() { m.DriveInput(in[0], sim.VX) }, sim.VX},
	}
	for _, st := range steps {
		st.mutate()
		m.Eval()
		if got := m.NetValue(0, y); got != st.want {
			t.Fatalf("%s: y = %v, want %v", st.name, got, st.want)
		}
	}
}
