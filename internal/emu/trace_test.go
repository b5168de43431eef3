package emu

import (
	"bytes"
	"strings"
	"testing"

	"sarmany/internal/machine"
)

func TestPhaseTraceRecordsBarriers(t *testing.T) {
	ch := New(E16G3())
	ext, _ := machine.NewBufC(ch.Ext(), 4*2048)
	ch.Run(4, func(c *Core) {
		// Phase 0: pure compute.
		c.Charge(machine.Ops{FMA: 10000})
		c.Barrier()
		// Phase 1: heavy off-chip writes, almost no compute.
		for i := 0; i < 2048; i++ {
			ext.Store(c, c.ID*2048+i, 1)
		}
		c.Barrier()
	})
	ps := ch.Phases()
	if len(ps) != 2 {
		t.Fatalf("%d phases", len(ps))
	}
	if ps[0].Index != 0 || ps[1].Index != 1 {
		t.Error("phase indices wrong")
	}
	if ps[0].Start != 0 || ps[0].End != ps[1].Start {
		t.Errorf("phases not contiguous: %+v %+v", ps[0], ps[1])
	}
	if ps[0].BandwidthBound {
		t.Error("compute phase marked bandwidth-bound")
	}
	if !ps[1].BandwidthBound {
		t.Error("write phase not marked bandwidth-bound")
	}
	if ps[1].ExtBusy <= ps[0].ExtBusy {
		t.Error("write phase should have higher channel busy time")
	}
	if d := ps[0].Duration(); d != 10000 {
		t.Errorf("compute phase duration %v", d)
	}
}

func TestWritePhaseTable(t *testing.T) {
	ch := New(E16G3())
	ch.Run(2, func(c *Core) {
		c.Charge(machine.Ops{FMA: 100})
		c.Barrier()
	})
	var buf bytes.Buffer
	ch.WritePhaseTable(&buf)
	out := buf.String()
	if !strings.Contains(out, "phase") || !strings.Contains(out, "compute") {
		t.Errorf("table output: %q", out)
	}
}
