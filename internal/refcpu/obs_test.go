package refcpu

import (
	"testing"

	"sarmany/internal/machine"
	"sarmany/internal/obs"
)

func TestCPUTracerAndMetrics(t *testing.T) {
	run := func(tr *obs.Tracer) *CPU {
		cpu := New(I7M620())
		if tr != nil {
			cpu.SetTracer(tr)
		}
		buf, err := machine.NewBufC(cpu.Mem(), 1<<20) // 8 MB: exceeds L3
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1<<20; i += 8 { // new cache line every access
			buf.Store(cpu, i, 1)
		}
		cpu.Charge(machine.Ops{FMA: 100})
		return cpu
	}

	plain := run(nil)
	tr := obs.NewTracer(I7M620().Clock)
	traced := run(tr)
	if plain.Cycles() != traced.Cycles() {
		t.Errorf("cycles differ: disabled %v, enabled %v", plain.Cycles(), traced.Cycles())
	}

	var memSpans int
	for _, tk := range tr.Tracks() {
		for _, s := range tk.Spans() {
			if s.Kind != obs.KindStallMem {
				t.Errorf("unexpected span kind %v", s.Kind)
			}
			memSpans++
		}
	}
	if memSpans == 0 {
		t.Error("no memory-stall spans recorded for a DRAM-bound sweep")
	}

	snap := traced.Metrics().Snapshot()
	if v := snap.Value("cpu.ops.fma"); v != 100 {
		t.Errorf("cpu.ops.fma = %v", v)
	}
	if v := snap.Value("cpu.mem.stores"); v != float64(traced.Stats.Stores) {
		t.Errorf("cpu.mem.stores = %v, want %v", v, traced.Stats.Stores)
	}
	dram := snap.Value("cpu.mem.served.dram")
	if dram == 0 {
		t.Error("no DRAM-served accesses in metrics for an L3-exceeding sweep")
	}
	if v := snap.Value("cpu.cycles"); v != traced.Cycles() {
		t.Errorf("cpu.cycles = %v, want %v", v, traced.Cycles())
	}
}
