package flow

import (
	"testing"

	"sarmany/internal/emu"
	"sarmany/internal/machine"
)

func TestTwoStagePipeline(t *testing.T) {
	g := NewGraph()
	const items = 50
	var got []complex64
	if err := g.Node("src", func(c *Ctx) {
		for i := 0; i < items; i++ {
			c.Core.Charge(machine.Ops{FMA: 10})
			c.Out("d").Send([]complex64{complex(float32(i), 0)})
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.Node("sink", func(c *Ctx) {
		for i := 0; i < items; i++ {
			v := c.In("d").Recv()
			c.Core.Charge(machine.Ops{FMA: 20})
			got = append(got, v[0])
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("src", "d", "sink", "d", 2); err != nil {
		t.Fatal(err)
	}
	ch := emu.New(emu.E16G3())
	if err := g.Run(ch, nil); err != nil {
		t.Fatal(err)
	}
	if len(got) != items {
		t.Fatalf("received %d items", len(got))
	}
	for i, v := range got {
		if real(v) != float32(i) {
			t.Fatalf("item %d = %v", i, v)
		}
	}
	if ch.MaxCycles() <= 0 {
		t.Error("no simulated time elapsed")
	}
}

func TestDiamondGraph(t *testing.T) {
	// src fans out to two workers; a join sums their streams. Exercises
	// multiple ports per node and custom placement.
	g := NewGraph()
	const items = 20
	var sums []float32
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.Node("src", func(c *Ctx) {
		for i := 0; i < items; i++ {
			v := []complex64{complex(float32(i), 0)}
			c.Out("a").Send(v)
			c.Out("b").Send(v)
		}
	}))
	must(g.Node("double", func(c *Ctx) {
		for i := 0; i < items; i++ {
			v := c.In("x").Recv()
			c.Core.Charge(machine.Ops{FMA: 2})
			c.Out("y").Send([]complex64{v[0] * 2})
		}
	}))
	must(g.Node("triple", func(c *Ctx) {
		for i := 0; i < items; i++ {
			v := c.In("x").Recv()
			c.Core.Charge(machine.Ops{FMA: 2})
			c.Out("y").Send([]complex64{v[0] * 3})
		}
	}))
	must(g.Node("join", func(c *Ctx) {
		for i := 0; i < items; i++ {
			a := c.In("a").Recv()
			b := c.In("b").Recv()
			c.Core.Charge(machine.Ops{Flop: 2})
			sums = append(sums, real(a[0])+real(b[0]))
		}
	}))
	must(g.Connect("src", "a", "double", "x", 2))
	must(g.Connect("src", "b", "triple", "x", 2))
	must(g.Connect("double", "y", "join", "a", 2))
	must(g.Connect("triple", "y", "join", "b", 2))

	ch := emu.New(emu.E16G3())
	// Place on a 2x2 sub-mesh to keep hops short.
	if err := g.Run(ch, []int{0, 1, 4, 5}); err != nil {
		t.Fatal(err)
	}
	for i, s := range sums {
		if s != float32(5*i) {
			t.Fatalf("sum %d = %v, want %v", i, s, 5*i)
		}
	}
}

func TestGraphValidation(t *testing.T) {
	g := NewGraph()
	if err := g.Node("a", func(*Ctx) {}); err != nil {
		t.Fatal(err)
	}
	if err := g.Node("a", func(*Ctx) {}); err == nil {
		t.Error("duplicate node accepted")
	}
	if err := g.Node("nil", nil); err == nil {
		t.Error("nil body accepted")
	}
	if err := g.Connect("a", "x", "missing", "y", 1); err == nil {
		t.Error("unknown target accepted")
	}
	if err := g.Connect("missing", "x", "a", "y", 1); err == nil {
		t.Error("unknown source accepted")
	}
	if err := g.Node("b", func(*Ctx) {}); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("a", "x", "b", "y", 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if err := g.Connect("a", "x", "b", "y", 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("a", "x", "b", "z", 1); err == nil {
		t.Error("double-connected output accepted")
	}
	if err := g.Connect("b", "q", "b", "y", 1); err == nil {
		t.Error("double-connected input accepted")
	}
}

func TestRunValidation(t *testing.T) {
	ch := emu.New(emu.E16G3())
	if err := NewGraph().Run(ch, nil); err == nil {
		t.Error("empty graph accepted")
	}
	g := NewGraph()
	if err := g.Node("a", func(*Ctx) {}); err != nil {
		t.Fatal(err)
	}
	if err := g.Node("b", func(*Ctx) {}); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(ch, []int{0}); err == nil {
		t.Error("short placement accepted")
	}
	if err := g.Run(ch, []int{0, 99}); err == nil {
		t.Error("out-of-range core accepted")
	}
	if err := g.Run(ch, []int{3, 3}); err == nil {
		t.Error("double-occupied core accepted")
	}
}

func TestUnconnectedPortPanics(t *testing.T) {
	g := NewGraph()
	panicked := make(chan bool, 1)
	if err := g.Node("a", func(c *Ctx) {
		defer func() { panicked <- recover() != nil }()
		c.Out("nowhere").Send(nil)
	}); err != nil {
		t.Fatal(err)
	}
	ch := emu.New(emu.E16G3())
	if err := g.Run(ch, nil); err != nil {
		t.Fatal(err)
	}
	if !<-panicked {
		t.Error("unconnected port did not panic")
	}
}

func TestDeterministicTiming(t *testing.T) {
	run := func() float64 {
		g := NewGraph()
		_ = g.Node("p", func(c *Ctx) {
			for i := 0; i < 30; i++ {
				c.Core.Charge(machine.Ops{FMA: 7})
				c.Out("d").Send(make([]complex64, 4))
			}
		})
		_ = g.Node("q", func(c *Ctx) {
			for i := 0; i < 30; i++ {
				c.In("d").Recv()
				c.Core.Charge(machine.Ops{FMA: 13})
			}
		})
		_ = g.Connect("p", "d", "q", "d", 3)
		ch := emu.New(emu.E16G3())
		if err := g.Run(ch, nil); err != nil {
			t.Fatal(err)
		}
		return ch.MaxCycles()
	}
	first := run()
	for i := 0; i < 10; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d: %v cycles, first %v", i, got, first)
		}
	}
}
