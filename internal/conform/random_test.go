package conform

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sarmany/internal/emu"
	"sarmany/internal/machine"
	"sarmany/internal/obs"
)

// randOp is one pre-generated instruction of a random program. Programs
// are generated BEFORE the run from a seeded source and then replayed
// inside the core goroutines: the generator never races, and the same
// seed always produces the same program.
type randOp struct {
	kind randKind
	n    int // op repeat count / transfer size, kind-dependent
	idx  int // buffer slot / peer selector, kind-dependent
}

type randKind int

const (
	opFMA randKind = iota
	opIOp
	opTrig
	opLocalLoad
	opLocalStore
	opRemoteRead
	opRemoteWrite
	opExtLoad
	opExtStore
	opDMAExtRead
	opDMAInterCore
	numRandKinds
)

const (
	randLocalLen = 32 // elements in each core's scratch buffer
	randExtPart  = 64 // elements of the ext buffer owned by each core
)

// randProgram is a complete multi-core program: per-core, per-round op
// lists separated by barriers.
type randProgram struct {
	cores  int
	rounds [][][]randOp // rounds[r][core] = op list
}

// genProgram draws a program from the seed. All shared state is
// partitioned so that, at run time, every mutable element is touched by
// exactly one goroutine: core i writes only its own scratch buffer, its
// own slot of the write mailbox, and its own partition of the external
// buffer; cross-core reads target buffers that are pre-filled before the
// run and read-only during it.
func genProgram(seed int64) randProgram {
	rng := rand.New(rand.NewSource(seed))
	p := randProgram{cores: 2 + rng.Intn(15)} // 2..16
	nRounds := 2 + rng.Intn(3)                // 2..4
	for r := 0; r < nRounds; r++ {
		round := make([][]randOp, p.cores)
		for c := range round {
			ops := make([]randOp, 5+rng.Intn(36)) // 5..40
			for i := range ops {
				k := randKind(rng.Intn(int(numRandKinds)))
				op := randOp{kind: k}
				switch k {
				case opFMA:
					op.n = 1 + rng.Intn(50)
				case opIOp:
					op.n = 1 + rng.Intn(20)
				case opTrig:
					op.n = 1 + rng.Intn(5)
				case opLocalLoad, opLocalStore:
					op.idx = rng.Intn(randLocalLen)
				case opRemoteRead:
					op.idx = rng.Intn(p.cores) // peer whose constants we read
				case opRemoteWrite:
					// target slot is always the core's own; nothing to draw
				case opExtLoad, opExtStore:
					op.idx = rng.Intn(randExtPart)
				case opDMAExtRead:
					op.n = 8 * (1 + rng.Intn(randLocalLen/8)) // bytes, multiple of 8
				case opDMAInterCore:
					op.n = 8 * (1 + rng.Intn(randLocalLen/8))
					op.idx = rng.Intn(p.cores)
				}
				ops[i] = op
			}
			round[c] = ops
		}
		p.rounds = append(p.rounds, round)
	}
	return p
}

// runProgram executes the program on a fresh traced chip and returns it.
func runProgram(t *testing.T, prog randProgram) *emu.Chip {
	t.Helper()
	par := emu.E16G3()
	ch := emu.New(par)
	ch.SetTracer(obs.NewTracer(par.Clock))

	// Pre-run allocation and fill: per-core scratch (mutable, owned),
	// per-core constant banks (read-only during the run), one write
	// mailbox with a slot per core, and a partitioned external buffer.
	scratch := make([]*machine.BufC, prog.cores)
	consts := make([]*machine.BufC, prog.cores)
	for i := 0; i < prog.cores; i++ {
		scratch[i] = bufc(ch.Cores[i].Bank(2), randLocalLen)
		consts[i] = bufc(ch.Cores[i].Bank(1), randLocalLen)
		for j := 0; j < randLocalLen; j++ {
			consts[i].Data[j] = complex(float32(i), float32(j))
		}
	}
	mailbox := bufc(ch.Cores[0].Bank(3), prog.cores)
	ext := bufc(ch.Ext(), prog.cores*randExtPart)

	ch.Run(prog.cores, func(c *emu.Core) {
		var pending []emu.DMA
		for _, round := range prog.rounds {
			for _, op := range round[c.ID] {
				switch op.kind {
				case opFMA:
					c.Charge(machine.Ops{FMA: op.n})
				case opIOp:
					c.Charge(machine.Ops{IOp: op.n})
				case opTrig:
					c.Charge(machine.Ops{Trig: op.n})
				case opLocalLoad:
					scratch[c.ID].Load(c, op.idx)
				case opLocalStore:
					scratch[c.ID].Store(c, op.idx, complex(1, 0))
				case opRemoteRead:
					consts[op.idx].Load(c, c.ID%randLocalLen)
				case opRemoteWrite:
					mailbox.Store(c, c.ID, complex(float32(c.ID), 0))
				case opExtLoad:
					ext.Load(c, c.ID*randExtPart+op.idx)
				case opExtStore:
					ext.Store(c, c.ID*randExtPart+op.idx, 1)
				case opDMAExtRead:
					pending = append(pending,
						c.DMACopyC(scratch[c.ID], 0, ext, c.ID*randExtPart, op.n/8))
				case opDMAInterCore:
					pending = append(pending,
						c.DMACopyC(scratch[c.ID], 0, consts[op.idx], 0, op.n/8))
				}
			}
			for _, d := range pending {
				c.DMAWait(d)
			}
			pending = pending[:0]
			c.Barrier()
		}
	})
	return ch
}

// fingerprint reduces a completed run to a deterministic string: the run
// length, every core's clock and cycle split, the summed statistics, and
// the phase trace. Two runs of the same program must produce identical
// fingerprints.
func fingerprint(ch *emu.Chip) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "max=%v\n", ch.MaxCycles())
	for i := 0; i < ch.ActiveCount(); i++ {
		c := ch.Cores[i]
		fmt.Fprintf(&sb, "core%d cycles=%v compute=%v stall=%v\n",
			i, c.Cycles(), c.Stats.ComputeCycles, c.Stats.StallCycles)
	}
	emu.VisitStats(ch.TotalStats(), func(name string, v float64) {
		fmt.Fprintf(&sb, "%s=%v\n", name, v)
	})
	for i, p := range ch.Phases() {
		fmt.Fprintf(&sb, "phase%d [%v,%v] slowest=%v ext=%v bw=%v\n",
			i, p.Start, p.End, p.SlowestCore, p.ExtBusy, p.BandwidthBound)
	}
	return sb.String()
}

// TestRandomProgramsConform generates random multi-core programs from
// fixed seeds and requires every run to satisfy the full invariant set
// and to be bit-identical across repeated executions (run with -race in
// `make conform` — determinism must not come from accidental ordering).
func TestRandomProgramsConform(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			prog := genProgram(seed)
			var first string
			for rep := 0; rep < 3; rep++ {
				ch := runProgram(t, prog)
				if rep := CheckAll(ch); !rep.OK() {
					t.Fatalf("invariants: %v", rep.Err())
				}
				fp := fingerprint(ch)
				if first == "" {
					first = fp
				} else if fp != first {
					t.Fatalf("run %d diverged from run 0:\n--- run 0 ---\n%s--- run %d ---\n%s",
						rep, first, rep, fp)
				}
			}
		})
	}
}

// TestLinkChainDeterminism pushes blocks down a 4-stage link pipeline —
// the concurrency pattern the FFBP flow engine uses — and requires the
// same fingerprint on every execution plus a clean conformance report.
func TestLinkChainDeterminism(t *testing.T) {
	const stages, blocks, blockLen, depth = 4, 25, 8, 2
	run := func() *emu.Chip {
		par := emu.E16G3()
		ch := emu.New(par)
		ch.SetTracer(obs.NewTracer(par.Clock))
		links := make([]*emu.Link, stages-1)
		for i := range links {
			links[i] = ch.Connect(i, i+1, depth)
		}
		ch.Run(stages, func(c *emu.Core) {
			switch {
			case c.ID == 0:
				block := make([]complex64, blockLen)
				for b := 0; b < blocks; b++ {
					c.Charge(machine.Ops{FMA: 10})
					links[0].Send(c, block)
				}
			case c.ID == stages-1:
				for b := 0; b < blocks; b++ {
					links[c.ID-1].Recv(c)
					c.Charge(machine.Ops{FMA: 25})
				}
			default:
				for b := 0; b < blocks; b++ {
					v := links[c.ID-1].Recv(c)
					c.Charge(machine.Ops{FMA: 15})
					links[c.ID].Send(c, v)
				}
			}
		})
		return ch
	}
	var first string
	for rep := 0; rep < 3; rep++ {
		ch := run()
		if rep := CheckAll(ch); !rep.OK() {
			t.Fatalf("invariants: %v", rep.Err())
		}
		fp := fingerprint(ch)
		if first == "" {
			first = fp
		} else if fp != first {
			t.Fatalf("pipeline run %d diverged:\n%s\nvs\n%s", rep, first, fp)
		}
	}
}
