// Package flow is a small process-network layer over the Epiphany chip
// model, addressing the programmability problem the paper's Sec. VI-B
// identifies with MPMD mappings: "explicit management of synchronization
// between the different cores ... needs to be done manually and increases
// the burden on the programmer in addition to the requirement of writing
// separate C programs for each individual core". The paper's proposed
// direction is a higher-level language (their occam-pi work); this package
// is that idea in library form: a dataflow graph of named processes and
// typed channels, placed onto cores and executed with the synchronization
// generated rather than hand-written.
//
//	g := flow.NewGraph()
//	g.Node("producer", func(c *flow.Ctx) {
//	    for i := 0; i < 100; i++ {
//	        c.Core.Charge(machine.Ops{FMA: 50})
//	        c.Out("data").Send([]complex64{complex(float32(i), 0)})
//	    }
//	})
//	g.Node("consumer", func(c *flow.Ctx) {
//	    for i := 0; i < 100; i++ {
//	        v := c.In("data").Recv()
//	        ...
//	    }
//	})
//	g.Connect("producer", "data", "consumer", "data", 4)
//	err := g.Run(chip, nil) // nil placement = node order
package flow

import (
	"fmt"

	"sarmany/internal/emu"
)

// Proc is one process body: it runs on its placed core, exchanging data
// through the context's named ports.
type Proc func(*Ctx)

// Ctx gives a running process access to its core and its connected ports.
type Ctx struct {
	// Core is the simulated core the process was placed on; charge it for
	// the process's computation.
	Core *emu.Core
	ins  map[string]*InPort
	outs map[string]*OutPort
}

// In returns the named input port; it panics if the graph never connected
// an edge to that name (a programming error in the graph).
func (c *Ctx) In(name string) *InPort {
	p, ok := c.ins[name]
	if !ok {
		panic(fmt.Sprintf("flow: process has no input port %q", name))
	}
	return p
}

// Out returns the named output port; it panics if unconnected.
func (c *Ctx) Out(name string) *OutPort {
	p, ok := c.outs[name]
	if !ok {
		panic(fmt.Sprintf("flow: process has no output port %q", name))
	}
	return p
}

// InPort receives blocks of complex samples from an upstream process.
type InPort struct {
	link *emu.Link
	core *emu.Core
}

// Recv blocks (in simulated time) until the next block arrives. The
// block is valid until the next Recv on the port.
func (p *InPort) Recv() []complex64 { return p.link.Recv(p.core) }

// OutPort streams blocks of complex samples to a downstream process.
type OutPort struct {
	link *emu.Link
	core *emu.Core
}

// Send streams vals downstream, back-pressuring when the receiver's
// buffer is full.
func (p *OutPort) Send(vals []complex64) { p.link.Send(p.core, vals) }

type node struct {
	name string
	proc Proc
}

type edge struct {
	from, fromPort string
	to, toPort     string
	capacity       int
}

// Graph is a dataflow program under construction.
type Graph struct {
	nodes []node
	index map[string]int
	edges []edge
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{index: map[string]int{}}
}

// Node adds a named process. Names must be unique.
func (g *Graph) Node(name string, p Proc) error {
	if _, dup := g.index[name]; dup {
		return fmt.Errorf("flow: duplicate node %q", name)
	}
	if p == nil {
		return fmt.Errorf("flow: node %q has no body", name)
	}
	g.index[name] = len(g.nodes)
	g.nodes = append(g.nodes, node{name: name, proc: p})
	return nil
}

// Connect adds a one-way channel from fromNode's output port to toNode's
// input port with the given block capacity. Each (node, port, direction)
// may be used by exactly one edge — the single-producer single-consumer
// discipline that keeps the simulation deterministic.
func (g *Graph) Connect(fromNode, fromPort, toNode, toPort string, capacity int) error {
	if _, ok := g.index[fromNode]; !ok {
		return fmt.Errorf("flow: unknown node %q", fromNode)
	}
	if _, ok := g.index[toNode]; !ok {
		return fmt.Errorf("flow: unknown node %q", toNode)
	}
	if capacity < 1 {
		return fmt.Errorf("flow: capacity %d < 1", capacity)
	}
	for _, e := range g.edges {
		if e.from == fromNode && e.fromPort == fromPort {
			return fmt.Errorf("flow: output %s.%s already connected", fromNode, fromPort)
		}
		if e.to == toNode && e.toPort == toPort {
			return fmt.Errorf("flow: input %s.%s already connected", toNode, toPort)
		}
	}
	g.edges = append(g.edges, edge{fromNode, fromPort, toNode, toPort, capacity})
	return nil
}

// Run places every node on a core of the chip and executes the graph to
// completion. placement maps node index to core index; nil places node i
// on core i. All channels are wired before any process starts, so no
// manual synchronization is needed — the property the paper's MPMD
// implementation had to build by hand.
func (g *Graph) Run(ch *emu.Chip, placement []int) error {
	n := len(g.nodes)
	if n == 0 {
		return fmt.Errorf("flow: empty graph")
	}
	if placement == nil {
		placement = make([]int, n)
		for i := range placement {
			placement[i] = i
		}
	}
	if len(placement) != n {
		return fmt.Errorf("flow: placement has %d entries for %d nodes", len(placement), n)
	}
	seen := make(map[int]bool, n)
	for i, c := range placement {
		if c < 0 || c >= len(ch.Cores) {
			return fmt.Errorf("flow: node %q placed on nonexistent core %d", g.nodes[i].name, c)
		}
		if seen[c] {
			return fmt.Errorf("flow: core %d hosts more than one node", c)
		}
		seen[c] = true
	}
	// Graceful degradation: nodes placed on cores a fault plan halted move
	// to the nearest free live core before any channel is wired. Without
	// faults this returns the placement unchanged.
	placement, err := ch.RemapPlacement(placement)
	if err != nil {
		return fmt.Errorf("flow: cannot degrade: %w", err)
	}
	maxCore := 0
	for _, c := range placement {
		if c > maxCore {
			maxCore = c
		}
	}

	// Wire the channels.
	ctxs := make([]*Ctx, n)
	for i := range ctxs {
		ctxs[i] = &Ctx{ins: map[string]*InPort{}, outs: map[string]*OutPort{}}
	}
	for _, e := range g.edges {
		fi, ti := g.index[e.from], g.index[e.to]
		link := ch.Connect(placement[fi], placement[ti], e.capacity)
		ctxs[fi].outs[e.fromPort] = &OutPort{link: link}
		ctxs[ti].ins[e.toPort] = &InPort{link: link}
	}

	// Map cores to nodes and run. Cores that host no node return at once.
	nodeOfCore := make(map[int]int, n)
	for i, c := range placement {
		nodeOfCore[c] = i
	}
	ch.Run(maxCore+1, func(core *emu.Core) {
		i, ok := nodeOfCore[core.ID]
		if !ok {
			return
		}
		ctx := ctxs[i]
		ctx.Core = core
		for _, p := range ctx.ins {
			p.core = core
		}
		for _, p := range ctx.outs {
			p.core = core
		}
		g.nodes[i].proc(ctx)
	})
	return nil
}
