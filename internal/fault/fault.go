// Package fault models deterministic, seeded hardware-fault plans for
// the Epiphany chip simulation: cores that halt outright or run derated,
// streaming-link transfers that time out and must be retransmitted with
// exponential backoff, a degraded off-chip SDRAM channel, and DMA
// descriptors whose completion times out. A Plan is a declarative list of
// faults; Compile turns it into an Injector, the read-only oracle
// internal/emu consults at its hook points.
//
// Determinism contract: every fault decision is a pure function of
// (plan seed, fault stream, event index, attempt) through a splitmix64-
// style hash — no shared RNG state, no dependence on goroutine schedule.
// The same plan over the same workload therefore produces bit-identical
// runs, and an empty plan compiles to an Injector whose answers are the
// exact identities (no halts, slowdown 1, scale 1, zero retries), which
// the emulator treats as a no-op.
package fault

import (
	"fmt"
	"math"
	"sort"
)

// Default retry/timeout parameters, applied by Compile when a fault line
// leaves them zero.
const (
	DefaultLinkTimeout = 500 // cycles before a link transfer is declared lost
	DefaultLinkBackoff = 64  // base backoff, doubled per attempt
	DefaultLinkRetries = 8   // retransmit attempts before forced success
	DefaultDMATimeout  = 200 // cycles per DMA completion timeout
	DefaultDMARetries  = 4

	// MaxRetryCap bounds MaxRetries so the exponential backoff can never
	// overflow (2^20 base-cycle units at most).
	MaxRetryCap = 20
)

// LinkFault makes transfers on matching links fail with probability Rate
// per attempt. Each failure costs the producer TimeoutCycles plus
// BackoffCycles*2^attempt before the retransmission; after MaxRetries
// failed attempts the transfer is forced through (so a plan can never
// deadlock the simulation).
type LinkFault struct {
	From, To      int     // producer/consumer core IDs; -1 matches any
	Rate          float64 // per-attempt failure probability in [0, 1]
	TimeoutCycles float64
	BackoffCycles float64
	MaxRetries    int
}

// DMAFault makes DMA descriptors issued by matching cores time out with
// probability Rate per attempt, each timeout delaying completion by
// TimeoutCycles.
type DMAFault struct {
	Core          int // issuing core ID; -1 matches any
	Rate          float64
	TimeoutCycles float64
	MaxRetries    int
}

// Derate slows one core's clock by Factor (>= 1): every committed
// dual-issue window costs Factor times its nominal cycles.
type Derate struct {
	Core   int
	Factor float64
}

// ChipDerate slows every core of one chip of a multi-chip array by
// Factor (>= 1); it multiplies onto any per-core derate of those cores.
type ChipDerate struct {
	Chip   int
	Factor float64
}

// Plan is one declarative fault scenario. The zero Plan is the empty
// plan: compiling it yields a no-op Injector.
type Plan struct {
	// Seed selects the deterministic fault stream; two plans that differ
	// only in Seed fail different transfers.
	Seed int64 `json:"seed"`
	// Halts lists hard-halted cores: they never start, and mapped kernels
	// remap their work to the nearest live core.
	Halts []int `json:"halts,omitempty"`
	// Derates lists per-core frequency deratings.
	Derates []Derate `json:"derates,omitempty"`
	// ChipHalts lists hard-halted chips of a multi-chip array: every
	// core of a halted chip behaves as if individually halted.
	ChipHalts []int `json:"chip_halts,omitempty"`
	// ChipDerates lists whole-chip frequency deratings.
	ChipDerates []ChipDerate `json:"chip_derates,omitempty"`
	// ExtScale scales the off-chip SDRAM channel bandwidth; 0 means unset
	// (treated as 1). Valid values are in (0, 1].
	ExtScale float64     `json:"ext_scale,omitempty"`
	Links    []LinkFault `json:"links,omitempty"`
	DMAs     []DMAFault  `json:"dmas,omitempty"`
}

// Empty reports whether the plan injects nothing (seed alone does not
// make a plan non-empty).
func (p *Plan) Empty() bool {
	return len(p.Halts) == 0 && len(p.Derates) == 0 &&
		len(p.ChipHalts) == 0 && len(p.ChipDerates) == 0 &&
		(p.ExtScale == 0 || p.ExtScale == 1) &&
		len(p.Links) == 0 && len(p.DMAs) == 0
}

// Validate checks every fault entry's ranges and rejects duplicate
// targets (two derates for one core, two link faults for one exact
// (from, to) pair, ...), which would make the canonical text form
// ambiguous.
func (p *Plan) Validate() error {
	seenHalt := map[int]bool{}
	for _, h := range p.Halts {
		if h < 0 {
			return fmt.Errorf("fault: halt of negative core %d", h)
		}
		if seenHalt[h] {
			return fmt.Errorf("fault: core %d halted twice", h)
		}
		seenHalt[h] = true
	}
	seenDer := map[int]bool{}
	for _, d := range p.Derates {
		if d.Core < 0 {
			return fmt.Errorf("fault: derate of negative core %d", d.Core)
		}
		if !(d.Factor >= 1) || math.IsInf(d.Factor, 0) {
			return fmt.Errorf("fault: derate factor %v of core %d is not a finite value >= 1", d.Factor, d.Core)
		}
		if seenDer[d.Core] {
			return fmt.Errorf("fault: core %d derated twice", d.Core)
		}
		seenDer[d.Core] = true
	}
	seenChipHalt := map[int]bool{}
	for _, h := range p.ChipHalts {
		if h < 0 {
			return fmt.Errorf("fault: halt of negative chip %d", h)
		}
		if seenChipHalt[h] {
			return fmt.Errorf("fault: chip %d halted twice", h)
		}
		seenChipHalt[h] = true
	}
	seenChipDer := map[int]bool{}
	for _, d := range p.ChipDerates {
		if d.Chip < 0 {
			return fmt.Errorf("fault: derate of negative chip %d", d.Chip)
		}
		if !(d.Factor >= 1) || math.IsInf(d.Factor, 0) {
			return fmt.Errorf("fault: derate factor %v of chip %d is not a finite value >= 1", d.Factor, d.Chip)
		}
		if seenChipDer[d.Chip] {
			return fmt.Errorf("fault: chip %d derated twice", d.Chip)
		}
		seenChipDer[d.Chip] = true
	}
	if p.ExtScale != 0 && !(p.ExtScale > 0 && p.ExtScale <= 1) {
		return fmt.Errorf("fault: ext-derate scale %v outside (0, 1]", p.ExtScale)
	}
	seenLink := map[[2]int]bool{}
	for _, l := range p.Links {
		if l.From < -1 || l.To < -1 {
			return fmt.Errorf("fault: link %d->%d has an invalid endpoint", l.From, l.To)
		}
		if err := checkFaultParams("link", l.Rate, l.TimeoutCycles, l.BackoffCycles, l.MaxRetries); err != nil {
			return err
		}
		key := [2]int{l.From, l.To}
		if seenLink[key] {
			return fmt.Errorf("fault: link %d->%d configured twice", l.From, l.To)
		}
		seenLink[key] = true
	}
	seenDMA := map[int]bool{}
	for _, d := range p.DMAs {
		if d.Core < -1 {
			return fmt.Errorf("fault: dma fault on invalid core %d", d.Core)
		}
		if err := checkFaultParams("dma", d.Rate, d.TimeoutCycles, 0, d.MaxRetries); err != nil {
			return err
		}
		if seenDMA[d.Core] {
			return fmt.Errorf("fault: dma fault on core %d configured twice", d.Core)
		}
		seenDMA[d.Core] = true
	}
	return nil
}

func checkFaultParams(kind string, rate, timeout, backoff float64, retries int) error {
	if !(rate >= 0 && rate <= 1) {
		return fmt.Errorf("fault: %s rate %v outside [0, 1]", kind, rate)
	}
	if !(timeout >= 0) || math.IsInf(timeout, 0) {
		return fmt.Errorf("fault: %s timeout %v is not a finite non-negative value", kind, timeout)
	}
	if !(backoff >= 0) || math.IsInf(backoff, 0) {
		return fmt.Errorf("fault: %s backoff %v is not a finite non-negative value", kind, backoff)
	}
	if retries < 0 || retries > MaxRetryCap {
		return fmt.Errorf("fault: %s retries %d outside [0, %d]", kind, retries, MaxRetryCap)
	}
	return nil
}

// Injector is a compiled, immutable Plan: the oracle the emulator's hook
// points query. All methods are safe for concurrent use (the receiver is
// never mutated after Compile).
type Injector struct {
	plan       Plan
	halted     map[int]bool
	derate     map[int]float64
	chipHalted map[int]bool
	chipDerate map[int]float64
	extScale   float64
	links      []LinkFault
	dmas       []DMAFault
}

// Compile validates the plan, fills in default timeout/backoff/retry
// parameters, and returns the immutable Injector.
func (p Plan) Compile() (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{
		plan:       p,
		halted:     make(map[int]bool, len(p.Halts)),
		derate:     make(map[int]float64, len(p.Derates)),
		chipHalted: make(map[int]bool, len(p.ChipHalts)),
		chipDerate: make(map[int]float64, len(p.ChipDerates)),
		extScale:   1,
	}
	if p.ExtScale != 0 {
		inj.extScale = p.ExtScale
	}
	for _, h := range p.Halts {
		inj.halted[h] = true
	}
	for _, d := range p.Derates {
		inj.derate[d.Core] = d.Factor
	}
	for _, h := range p.ChipHalts {
		inj.chipHalted[h] = true
	}
	for _, d := range p.ChipDerates {
		inj.chipDerate[d.Chip] = d.Factor
	}
	inj.links = append([]LinkFault(nil), p.Links...)
	for i := range inj.links {
		l := &inj.links[i]
		if l.TimeoutCycles == 0 {
			l.TimeoutCycles = DefaultLinkTimeout
		}
		if l.BackoffCycles == 0 {
			l.BackoffCycles = DefaultLinkBackoff
		}
		if l.MaxRetries == 0 {
			l.MaxRetries = DefaultLinkRetries
		}
	}
	inj.dmas = append([]DMAFault(nil), p.DMAs...)
	for i := range inj.dmas {
		d := &inj.dmas[i]
		if d.TimeoutCycles == 0 {
			d.TimeoutCycles = DefaultDMATimeout
		}
		if d.MaxRetries == 0 {
			d.MaxRetries = DefaultDMARetries
		}
	}
	return inj, nil
}

// MustCompile is Compile for known-good plans (tests, examples); it
// panics on error.
func MustCompile(p Plan) *Injector {
	inj, err := p.Compile()
	if err != nil {
		panic(err)
	}
	return inj
}

// Empty reports whether the injector changes nothing — the emulator's
// bit-identical no-op case.
func (inj *Injector) Empty() bool { return inj.plan.Empty() }

// Halted reports whether the given core is hard-halted.
func (inj *Injector) Halted(core int) bool { return inj.halted[core] }

// HaltedCores returns the halted core IDs in ascending order.
func (inj *Injector) HaltedCores() []int {
	out := make([]int, 0, len(inj.halted))
	for c := range inj.halted {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// Slowdown returns the core's frequency-derating factor (1 when the core
// is not derated).
func (inj *Injector) Slowdown(core int) float64 {
	if f, ok := inj.derate[core]; ok {
		return f
	}
	return 1
}

// ChipHalted reports whether the given chip of a multi-chip array is
// hard-halted.
func (inj *Injector) ChipHalted(chip int) bool { return inj.chipHalted[chip] }

// ChipSlowdown returns the chip's frequency-derating factor (1 when the
// chip is not derated).
func (inj *Injector) ChipSlowdown(chip int) float64 {
	if f, ok := inj.chipDerate[chip]; ok {
		return f
	}
	return 1
}

// ExtScale returns the off-chip bandwidth scale in (0, 1]; 1 when the
// channel is healthy.
func (inj *Injector) ExtScale() float64 { return inj.extScale }

// LinkFaultFor returns the most specific configured fault for the link
// from->to: an exact match beats a single-wildcard match beats the
// all-wildcard match.
func (inj *Injector) LinkFaultFor(from, to int) (LinkFault, bool) {
	best, bestScore := LinkFault{}, -1
	for _, l := range inj.links {
		if (l.From != -1 && l.From != from) || (l.To != -1 && l.To != to) {
			continue
		}
		score := 0
		if l.From != -1 {
			score++
		}
		if l.To != -1 {
			score++
		}
		if score > bestScore {
			best, bestScore = l, score
		}
	}
	return best, bestScore >= 0
}

// DMAFaultFor returns the most specific configured DMA fault for the
// given issuing core.
func (inj *Injector) DMAFaultFor(core int) (DMAFault, bool) {
	best, bestScore := DMAFault{}, -1
	for _, d := range inj.dmas {
		if d.Core != -1 && d.Core != core {
			continue
		}
		score := 0
		if d.Core != -1 {
			score++
		}
		if score > bestScore {
			best, bestScore = d, score
		}
	}
	return best, bestScore >= 0
}

// LinkRetries returns how many retransmissions transfer number idx on the
// link from->to suffers: attempts fail independently with the configured
// rate until one succeeds or MaxRetries failures force the transfer
// through. Zero when the link has no configured fault.
func (inj *Injector) LinkRetries(from, to int, idx uint64) int {
	l, ok := inj.LinkFaultFor(from, to)
	if !ok || l.Rate == 0 {
		return 0
	}
	stream := linkStream(from, to)
	n := 0
	for n < l.MaxRetries && inj.fails(stream, idx, uint64(n), l.Rate) {
		n++
	}
	return n
}

// DMARetries returns how many completion timeouts DMA descriptor number
// idx issued by the given core suffers.
func (inj *Injector) DMARetries(core int, idx uint64) int {
	d, ok := inj.DMAFaultFor(core)
	if !ok || d.Rate == 0 {
		return 0
	}
	stream := dmaStream(core)
	n := 0
	for n < d.MaxRetries && inj.fails(stream, idx, uint64(n), d.Rate) {
		n++
	}
	return n
}

// Fault stream identifiers: disjoint uint64 namespaces per fault class so
// link and DMA draws never alias.
func linkStream(from, to int) uint64 {
	return 1<<40 | uint64(uint32(from))<<20 | uint64(uint32(to))&0xfffff
}
func dmaStream(core int) uint64 { return 2<<40 | uint64(uint32(core)) }

// fails draws the deterministic Bernoulli variable for one attempt.
func (inj *Injector) fails(stream, idx, attempt uint64, rate float64) bool {
	h := mix(uint64(inj.plan.Seed))
	h = mix(h ^ stream)
	h = mix(h ^ idx)
	h = mix(h ^ attempt)
	u := float64(h>>11) / (1 << 53) // uniform in [0, 1)
	return u < rate
}

// mix is the splitmix64 finalizer: a bijective avalanche over uint64.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
