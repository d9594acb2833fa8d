package atpg

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/faultsim"
	"repro/internal/netlist"
)

// Status is the outcome of test generation for one fault.
type Status int

// Test-generation outcomes.
const (
	Detected   Status = iota // a test cube was produced
	Untestable               // search space exhausted: fault is redundant
	Aborted                  // backtrack limit reached
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Detected:
		return "detected"
	case Untestable:
		return "untestable"
	case Aborted:
		return "aborted"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Generator runs PODEM on a scan view.
type Generator struct {
	sv *netlist.ScanView
	// BacktrackLimit bounds the search per fault; beyond it the fault
	// is reported Aborted. The default used by NewGenerator is 2000.
	BacktrackLimit int

	val     []V   // per-gate 5-valued plane
	piIndex []int // gate id -> PPI position, -1 otherwise
	tm      *Testability
	fanout  [][]int // combinational consumers of each gate
	events  [][]int // per logic level, gates whose fanin changed
	queued  []bool  // gate is in events

	fault faultsim.Fault
	nBack int
}

// NewGenerator returns a PODEM generator for the scan view.
func NewGenerator(sv *netlist.ScanView) *Generator {
	g := &Generator{
		sv:             sv,
		BacktrackLimit: 2000,
		val:            make([]V, sv.Circuit.NumGates()),
		piIndex:        make([]int, sv.Circuit.NumGates()),
		tm:             ComputeTestability(sv),
	}
	for i := range g.piIndex {
		g.piIndex[i] = -1
	}
	for i, id := range sv.PPIs {
		g.piIndex[id] = i
	}
	c := sv.Circuit
	g.fanout = make([][]int, c.NumGates())
	for _, id := range sv.Order {
		if t := c.Gates[id].Type; t == netlist.Input || t == netlist.DFF {
			continue
		}
		for _, f := range c.Gates[id].Fanin {
			g.fanout[f] = append(g.fanout[f], id)
		}
	}
	g.events = make([][]int, sv.Depth+1)
	g.queued = make([]bool, c.NumGates())
	return g
}

// GenerateCube attempts to generate a test cube for fault f. On
// Detected, the returned cube has one trit per PPI in scan-load order
// (unassigned inputs stay X). Otherwise the cube is nil.
func (g *Generator) GenerateCube(f faultsim.Fault) (*bitvec.Cube, Status) {
	g.fault = f
	g.nBack = 0
	for i := range g.val {
		g.val[i] = VX
	}
	g.imply()
	st := g.search()
	if st != Detected {
		return nil, st
	}
	cube := bitvec.NewCube(len(g.sv.PPIs))
	for i, id := range g.sv.PPIs {
		switch g.val[id] {
		case V0, VDB:
			cube.Set(i, bitvec.Zero)
		case V1, VD:
			cube.Set(i, bitvec.One)
		}
	}
	return cube, Detected
}

// search is the PODEM decision loop.
func (g *Generator) search() Status {
	if g.success() {
		return Detected
	}
	if g.failed() {
		return Untestable
	}
	net, want, ok := g.objective()
	if !ok {
		return Untestable
	}
	pi, v, ok := g.backtrace(net, want)
	if !ok {
		return Untestable
	}
	for _, tryV := range []V{v, Not5(v)} {
		g.assign(pi, tryV)
		st := g.search()
		if st == Detected || st == Aborted {
			return st
		}
		g.assign(pi, VX)
		g.nBack++
		if g.nBack > g.BacktrackLimit {
			return Aborted
		}
	}
	return Untestable
}

// assign sets a PPI value and implies it forward, event-driven: only
// gates with a fanin whose value changed are re-evaluated, level by
// level, so every gate sees its final fanin values. The plane it
// leaves is the one a full imply pass would compute.
func (g *Generator) assign(piGate int, v V) {
	if g.fault.Pin < 0 && g.fault.Gate == piGate {
		v = injectStuck(v, g.fault.StuckAt)
	}
	if g.val[piGate] == v {
		return
	}
	g.val[piGate] = v
	g.schedule(piGate)
	for lvl := g.sv.Level[piGate] + 1; lvl < len(g.events); lvl++ {
		// A fanout sits on a higher level, so this level's list does
		// not grow while it is walked.
		for _, id := range g.events[lvl] {
			g.queued[id] = false
			if nv := g.eval(id); nv != g.val[id] {
				g.val[id] = nv
				g.schedule(id)
			}
		}
		g.events[lvl] = g.events[lvl][:0]
	}
}

// schedule queues the combinational consumers of gate id for
// re-evaluation.
func (g *Generator) schedule(id int) {
	for _, o := range g.fanout[id] {
		if !g.queued[o] {
			g.queued[o] = true
			l := g.sv.Level[o]
			g.events[l] = append(g.events[l], o)
		}
	}
}

// success reports whether a fault effect reaches an observation point.
func (g *Generator) success() bool {
	c := g.sv.Circuit
	// DFF input-pin faults are observed directly at capture: detection
	// just requires the captured net to carry the non-stuck good value.
	if c.Gates[g.fault.Gate].Type == netlist.DFF && g.fault.Pin == 0 {
		src := c.Gates[g.fault.Gate].Fanin[0]
		if g.fault.StuckAt {
			return g.val[src] == V0
		}
		return g.val[src] == V1
	}
	for _, id := range g.sv.PPOs {
		if g.val[id].IsError() {
			return true
		}
	}
	return false
}

// failed reports whether the current assignment can no longer detect
// the fault: the fault site is definitely at its stuck value, or the
// effect was activated but every propagation path has died.
func (g *Generator) failed() bool {
	siteVal := g.siteValue()
	stuckV := V0
	if g.fault.StuckAt {
		stuckV = V1
	}
	if siteVal == stuckV {
		return true // activation impossible
	}
	if siteVal == VX {
		return false // activation still open
	}
	// Site is activated (carries D/D'); fail if the D-frontier is
	// empty and no PPO sees the effect.
	if g.success() {
		return false
	}
	return len(g.dFrontier()) == 0
}

// siteValue returns the 5-valued state of the faulty line.
func (g *Generator) siteValue() V {
	c := g.sv.Circuit
	gg := c.Gates[g.fault.Gate]
	if gg.Type == netlist.DFF && g.fault.Pin == 0 {
		// The branch into the scan cell: its good value is the source
		// net's; represent activation via the source value.
		return g.val[gg.Fanin[0]]
	}
	if g.fault.Pin < 0 {
		return g.val[g.fault.Gate]
	}
	return g.val[gg.Fanin[g.fault.Pin]]
}

// dFrontier lists gates whose output is X while some input carries a
// fault effect.
func (g *Generator) dFrontier() []int {
	c := g.sv.Circuit
	var out []int
	for _, id := range g.sv.Order {
		gg := &c.Gates[id]
		if gg.Type == netlist.Input || gg.Type == netlist.DFF {
			continue
		}
		if g.val[id] != VX {
			continue
		}
		for pin, f := range gg.Fanin {
			v := g.val[f]
			// An input-pin fault's effect is visible only to its own
			// gate; apply injection when scanning that gate's inputs.
			if g.fault.Gate == id && g.fault.Pin == pin {
				v = injectStuck(v, g.fault.StuckAt)
			}
			if v.IsError() {
				out = append(out, id)
				break
			}
		}
	}
	return out
}

// objective picks the next (net, value) goal: activate the fault if
// still possible, else advance the D-frontier.
func (g *Generator) objective() (net int, want V, ok bool) {
	c := g.sv.Circuit
	if g.siteValue() == VX {
		want = V1
		if g.fault.StuckAt {
			want = V0
		}
		gg := c.Gates[g.fault.Gate]
		switch {
		case gg.Type == netlist.DFF && g.fault.Pin == 0:
			return gg.Fanin[0], want, true
		case g.fault.Pin < 0:
			return g.fault.Gate, want, true
		default:
			return gg.Fanin[g.fault.Pin], want, true
		}
	}
	df := g.dFrontier()
	if len(df) == 0 {
		return 0, VX, false
	}
	// Choose the frontier gate easiest to observe (SCOAP CO), then the
	// X input cheapest to drive to the non-controlling value.
	best := df[0]
	for _, id := range df[1:] {
		if g.tm.CO[id] < g.tm.CO[best] {
			best = id
		}
	}
	gg := &c.Gates[best]
	wantV := nonControlling(gg.Type)
	sel, selCost := -1, scoapCap+1
	for _, f := range gg.Fanin {
		if g.val[f] != VX {
			continue
		}
		cost := g.tm.CC0[f]
		if wantV == V1 {
			cost = g.tm.CC1[f]
		}
		if cost < selCost {
			sel, selCost = f, cost
		}
	}
	if sel < 0 {
		return 0, VX, false
	}
	return sel, wantV, true
}

// nonControlling returns the input value that lets a fault effect pass
// through a gate of type t (arbitrary for XOR-class gates).
func nonControlling(t netlist.GateType) V {
	switch t {
	case netlist.And, netlist.Nand:
		return V1
	case netlist.Or, netlist.Nor:
		return V0
	}
	return V0
}

// backtrace maps an objective (net, value) to a PPI assignment by
// walking X-valued nets backwards, complementing through inverting
// gates.
func (g *Generator) backtrace(net int, want V) (pi int, v V, ok bool) {
	c := g.sv.Circuit
	for {
		if g.piIndex[net] >= 0 {
			return net, want, true
		}
		gg := &c.Gates[net]
		if gg.Type == netlist.Input || gg.Type == netlist.DFF {
			// A source that is not a PPI cannot exist in a scan view.
			return 0, VX, false
		}
		if gg.Type.Inverting() {
			want = Not5(want)
		}
		// Among the X fanins, follow the one SCOAP says is cheapest to
		// drive to the wanted value.
		next, cost := -1, scoapCap+1
		for _, f := range gg.Fanin {
			if g.val[f] != VX {
				continue
			}
			c := g.tm.CC0[f]
			if want == V1 {
				c = g.tm.CC1[f]
			}
			if c < cost {
				next, cost = f, c
			}
		}
		if next < 0 {
			return 0, VX, false
		}
		net = next
	}
}

// imply forward-propagates the whole 5-valued plane with the fault
// injected: the starting point of each fault, after which assign keeps
// the plane implied incrementally.
func (g *Generator) imply() {
	c := g.sv.Circuit
	for _, id := range g.sv.Order {
		gg := &c.Gates[id]
		if gg.Type != netlist.Input && gg.Type != netlist.DFF {
			g.val[id] = g.eval(id)
		} else if g.fault.Pin < 0 && g.fault.Gate == id {
			// Output-fault injection on a stuck PI or scan cell.
			g.val[id] = injectStuck(g.val[id], g.fault.StuckAt)
		}
	}
}

// eval computes the implied value of combinational gate id: its
// function over the fanin values, with the fault injected when it sits
// on this gate's output or on one of its input pins.
func (g *Generator) eval(id int) V {
	gg := &g.sv.Circuit.Gates[id]
	if id != g.fault.Gate {
		return evalGate(gg.Type, gg.Fanin, g.val, -1, VX)
	}
	if g.fault.Pin < 0 {
		return injectStuck(evalGate(gg.Type, gg.Fanin, g.val, -1, VX), g.fault.StuckAt)
	}
	fv := injectStuck(g.val[gg.Fanin[g.fault.Pin]], g.fault.StuckAt)
	return evalGate(gg.Type, gg.Fanin, g.val, g.fault.Pin, fv)
}

// evalGate computes the 5-valued output of a gate of type t over the
// values of its fanin nets, reading input pin fp as fv instead (fp = -1
// reads every pin from val).
func evalGate(t netlist.GateType, fanin []int, val []V, fp int, fv V) V {
	var v V
	switch t {
	case netlist.Buf, netlist.Not:
		v = val[fanin[0]]
		if fp == 0 {
			v = fv
		}
	case netlist.And, netlist.Nand:
		v = V1
		for pin, f := range fanin {
			x := val[f]
			if pin == fp {
				x = fv
			}
			v = And5(v, x)
		}
	case netlist.Or, netlist.Nor:
		v = V0
		for pin, f := range fanin {
			x := val[f]
			if pin == fp {
				x = fv
			}
			v = Or5(v, x)
		}
	case netlist.Xor, netlist.Xnor:
		v = V0
		for pin, f := range fanin {
			x := val[f]
			if pin == fp {
				x = fv
			}
			v = Xor5(v, x)
		}
	default:
		return v
	}
	if t.Inverting() {
		v = Not5(v)
	}
	return v
}

// injectStuck transforms a line value at the fault site: the faulty
// component is forced to the stuck value.
func injectStuck(v V, stuckAt bool) V {
	good, _ := v.split()
	f := t0
	if stuckAt {
		f = t1
	}
	return join(good, f)
}
