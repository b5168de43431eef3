// Dataflow: the programmability story of the paper's Sec. VI-B. The MPMD
// autofocus mapping required "writing separate C programs for each
// individual core" with hand-managed synchronization; the paper's future
// work points at higher-level dataflow languages (their occam-pi work).
// This example expresses a processing pipeline as a declarative graph on
// the simulated chip — the wiring, back-pressure and synchronization are
// generated — and shows the per-core times that fall out.
package main

import (
	"fmt"
	"log"

	"sarmany/internal/cf"
	"sarmany/internal/emu"
	"sarmany/internal/flow"
)

func main() {
	log.SetFlags(0)

	const blocks = 200
	g := flow.NewGraph()
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}

	// A three-stage pipeline: generate -> filter (moving average) ->
	// detect (energy over threshold), each stage on its own core.
	var detections int
	must(g.Node("generate", func(c *flow.Ctx) {
		for i := 0; i < blocks; i++ {
			c.Core.FMA(64)
			block := make([]complex64, 16)
			for j := range block {
				block[j] = cf.Expi(float32(i*j) * 0.1)
			}
			c.Out("raw").Send(block)
		}
	}))
	must(g.Node("filter", func(c *flow.Ctx) {
		for i := 0; i < blocks; i++ {
			in := c.In("raw").Recv()
			out := make([]complex64, len(in))
			var acc complex64
			for j, v := range in {
				c.Core.FMA(4)
				acc = cf.MulAdd(acc, v, complex(0.25, 0))
				out[j] = acc
			}
			c.Out("filtered").Send(out)
		}
	}))
	must(g.Node("detect", func(c *flow.Ctx) {
		for i := 0; i < blocks; i++ {
			in := c.In("filtered").Recv()
			var e float32
			for _, v := range in {
				c.Core.FMA(2)
				e += cf.Abs2(v)
			}
			c.Core.Flop(1)
			if e > 2 {
				detections++
			}
		}
	}))
	must(g.Connect("generate", "raw", "filter", "raw", 4))
	must(g.Connect("filter", "filtered", "detect", "filtered", 4))

	ch := emu.New(emu.E16G3())
	// Neighbouring cores keep the mesh hops short, as the paper's custom
	// mapping does.
	must(g.Run(ch, []int{0, 1, 2}))

	fmt.Printf("pipeline processed %d blocks in %.1f µs of chip time (%d detections)\n",
		blocks, ch.Time()*1e6, detections)
	fmt.Printf("%8s %14s %14s %14s\n", "core", "cycles", "compute", "stalled")
	for _, c := range ch.Cores[:3] {
		fmt.Printf("%8d %14.0f %14.0f %14.0f\n", c.ID, c.Cycles(), c.Stats.ComputeCycles, c.Stats.StallCycles)
	}
	fmt.Println("\nThe same graph API carries the paper's full 13-core autofocus")
	fmt.Println("pipeline: kernels.ParAutofocus and ParAutofocusMulti build one graph")
	fmt.Println("of 13 nodes per replica — synchronization generated, not written.")
}
