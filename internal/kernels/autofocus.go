package kernels

import (
	"errors"
	"fmt"

	"sarmany/internal/autofocus"
	"sarmany/internal/emu"
	"sarmany/internal/flow"
	"sarmany/internal/machine"
	"sarmany/internal/mat"
)

// BlockPair is one autofocus work item: the two 6x6 pixel blocks from the
// contributing subaperture images f- and f+.
type BlockPair struct {
	Minus, Plus autofocus.Block
}

// The autofocus workload, following the paper: for every block pair,
// several candidate flight-path compensations are tried ("several
// different flight path compensations are thus tested before a merge"),
// each requiring the full range-interpolation / beam-interpolation /
// correlation / summation pipeline on both blocks. Scores[i][j] is the
// criterion of pair i under shift candidate j; each value equals
// autofocus.Criterion(pair.Minus, pair.Plus, shift) exactly.

const (
	blockPx = autofocus.BlockSize * autofocus.BlockSize
	interpN = autofocus.InterpSize
	// PipelineCores is the number of cores one streaming autofocus
	// pipeline occupies (paper Fig. 9): 2 blocks x (3 range + 3 beam)
	// interpolators plus the common correlation core.
	PipelineCores = 13
)

// resampleBlock runs the charged two-stage Neville interpolation of one
// block under shift s, matching autofocus.Resample bit for bit. The block
// values are assumed already loaded into registers/local storage (the
// caller charges the loads).
func resampleBlock(m machine.Machine, b *autofocus.Block, s autofocus.Shift) autofocus.Interpolated {
	// Range stage: 6 rows x 3 sliding windows.
	var mid [autofocus.BlockSize][interpN]complex64
	for r := 0; r < autofocus.BlockSize; r++ {
		m.FMA(1) // off = DRange + Tilt*r
		off := s.DRange + s.Tilt*float64(r)
		for j := 0; j < interpN; j++ {
			var taps [4]complex64
			copy(taps[:], b[r][j:j+4])
			m.IOp(2)
			mid[r][j] = neville4(m, taps, float32(1.5+off))
		}
	}
	// Beam stage: 3 columns x 3 sliding windows.
	var out autofocus.Interpolated
	for i := 0; i < interpN; i++ {
		for j := 0; j < interpN; j++ {
			taps := [4]complex64{mid[i][j], mid[i+1][j], mid[i+2][j], mid[i+3][j]}
			m.IOp(2)
			out[i][j] = neville4(m, taps, float32(1.5+s.DBeam))
		}
	}
	return out
}

// correlate runs the charged focus-criterion summation (paper eq. 6) over
// two interpolated subimages, matching autofocus.Correlate exactly.
func correlate(m machine.Machine, a, b *autofocus.Interpolated) float64 {
	var sum float64
	for i := 0; i < interpN; i++ {
		for j := 0; j < interpN; j++ {
			pa := abs2(m, a[i][j])
			pb := abs2(m, b[i][j])
			m.FMA(1)
			sum += float64(pa) * float64(pb)
		}
	}
	return sum
}

// loadBlock charges the loads that bring one 6x6 block from buf (packed
// row-major at element offset base) into registers/local storage, and
// returns it.
func loadBlock(m machine.Machine, buf *machine.BufC, base int) autofocus.Block {
	var b autofocus.Block
	for r := 0; r < autofocus.BlockSize; r++ {
		for c := 0; c < autofocus.BlockSize; c++ {
			m.IOp(1)
			b[r][c] = buf.Load(m, base+r*autofocus.BlockSize+c)
		}
	}
	return b
}

// packPairs copies the block pairs into a buffer allocated from mem
// (pair i's minus block at element 2*i*36, plus block at (2*i+1)*36).
func packPairs(mem machine.Alloc, pairs []BlockPair) (*machine.BufC, error) {
	buf, err := machine.NewBufC(mem, 2*blockPx*len(pairs))
	if err != nil {
		return nil, err
	}
	for i, pr := range pairs {
		for r := 0; r < autofocus.BlockSize; r++ {
			copy(buf.Data[(2*i)*blockPx+r*autofocus.BlockSize:], pr.Minus[r][:])
			copy(buf.Data[(2*i+1)*blockPx+r*autofocus.BlockSize:], pr.Plus[r][:])
		}
	}
	return buf, nil
}

// SeqAutofocus evaluates the criterion of every block pair under every
// candidate shift sequentially on machine m, with the input pixel blocks
// streamed from mem. It returns Scores[pair][shift].
func SeqAutofocus(m machine.Machine, mem machine.Alloc, pairs []BlockPair, shifts []autofocus.Shift) ([][]float64, error) {
	if len(pairs) == 0 || len(shifts) == 0 {
		return nil, fmt.Errorf("kernels: autofocus needs at least one pair and one shift")
	}
	buf, err := packPairs(mem, pairs)
	if err != nil {
		return nil, err
	}
	scores := make([][]float64, len(pairs))
	for i := range pairs {
		minus := loadBlock(m, buf, (2*i)*blockPx)
		plus := loadBlock(m, buf, (2*i+1)*blockPx)
		scores[i] = make([]float64, len(shifts))
		for j, s := range shifts {
			a := resampleBlock(m, &minus, autofocus.Shift{})
			b := resampleBlock(m, &plus, s)
			scores[i][j] = correlate(m, &a, &b)
		}
	}
	return scores, nil
}

// afReplica is one copy of the 13-core pipeline as flow processes, scoring
// pairs (global indices lo..). Block blk (0 minus, 1 plus) is interpolated
// under shifts[blk]; shifts[0] is all zero, because the minus block is
// always interpolated at the nominal compensation.
type afReplica struct {
	buf    *machine.BufC // packed input pairs of the whole stream
	lo     int
	pairs  []BlockPair
	shifts [2][]autofocus.Shift
	scores [][]float64
	res    *machine.BufF
}

// addTo adds the replica's 13 nodes to g in slot order (range 0-2 and
// beam 3-5 for the minus block, 6-11 for the plus block, correlation 12),
// then its 16 edges: the block-forwarding chains, then per window
// range->beam and beam->correlation. The edge order is the order of
// Chip.LinkStats.
func (r *afReplica) addTo(g *flow.Graph, id int) error {
	name := func(stage string, blk, w int) string {
		return fmt.Sprintf("af%d.%s-%s-%d", id, stage, [2]string{"minus", "plus"}[blk], w)
	}
	corr := fmt.Sprintf("af%d.corr", id)
	var errs []error
	for blk := 0; blk < 2; blk++ {
		for w := 0; w < interpN; w++ {
			errs = append(errs, g.Node(name("range", blk, w), r.rangeProc(blk, w)))
		}
		for w := 0; w < interpN; w++ {
			errs = append(errs, g.Node(name("beam", blk, w), r.beamProc(blk)))
		}
	}
	errs = append(errs, g.Node(corr, r.corrProc))
	for blk := 0; blk < 2; blk++ {
		for w := 0; w < interpN-1; w++ {
			errs = append(errs, g.Connect(name("range", blk, w), "fwd", name("range", blk, w+1), "blk", 2))
		}
	}
	for w := 0; w < interpN; w++ {
		for blk := 0; blk < 2; blk++ {
			errs = append(errs, g.Connect(name("range", blk, w), "rng", name("beam", blk, w), "rng", 4))
		}
		for blk := 0; blk < 2; blk++ {
			errs = append(errs, g.Connect(name("beam", blk, w), "beam", corr, fmt.Sprint(blk*interpN+w), 4))
		}
	}
	return errors.Join(errs...)
}

// rangeProc is range interpolator w of block blk: per shift, it
// interpolates the 4-column window starting at column w across all six
// rows. The chain head (w == 0) DMAs each block from external memory;
// every core but the last forwards the block down the chain.
func (r *afReplica) rangeProc(blk, w int) flow.Proc {
	return func(c *flow.Ctx) {
		var local *machine.BufC
		var in *flow.InPort
		var fwd *flow.OutPort
		if w == 0 {
			var err error
			if local, err = machine.NewBufC(c.Core.Bank(2), blockPx); err != nil {
				panic(err)
			}
		} else {
			in = c.In("blk")
		}
		if w < interpN-1 {
			fwd = c.Out("fwd")
		}
		out := c.Out("rng")
		for i := range r.pairs {
			var b []complex64
			if w == 0 {
				c.Core.DMAWait(c.Core.DMACopyC(local, 0, r.buf, (2*(r.lo+i)+blk)*blockPx, blockPx))
				fwd.Send(local.Data)
				loadBlock(c.Core, local, 0) // charge reading the block from local memory
				b = local.Data
			} else {
				b = in.Recv()
				if fwd != nil {
					fwd.Send(b)
				}
			}
			for _, s := range r.shifts[blk] {
				var vals [autofocus.BlockSize]complex64
				for row := range vals {
					c.Core.FMA(1)
					off := s.DRange + s.Tilt*float64(row)
					var taps [4]complex64
					copy(taps[:], b[row*autofocus.BlockSize+w:])
					c.Core.IOp(2)
					vals[row] = neville4(c.Core, taps, float32(1.5+off))
				}
				out.Send(vals[:])
			}
		}
	}
}

// beamProc is a beam interpolator of block blk: it turns each column of
// range-interpolated values into three beam-interpolated ones.
func (r *afReplica) beamProc(blk int) flow.Proc {
	return func(c *flow.Ctx) {
		in, out := c.In("rng"), c.Out("beam")
		for range r.pairs {
			for _, s := range r.shifts[blk] {
				vals := in.Recv()
				var col [interpN]complex64
				for i := range col {
					taps := [4]complex64{vals[i], vals[i+1], vals[i+2], vals[i+3]}
					c.Core.IOp(2)
					col[i] = neville4(c.Core, taps, float32(1.5+s.DBeam))
				}
				out.Send(col[:])
			}
		}
	}
}

// corrProc is the correlation node: it assembles both interpolated
// subimages from input ports blk*3+w and stores each criterion.
func (r *afReplica) corrProc(c *flow.Ctx) {
	var ins [2 * interpN]*flow.InPort
	for k := range ins {
		ins[k] = c.In(fmt.Sprint(k))
	}
	for i := range r.pairs {
		for si := range r.shifts[1] {
			var a, b autofocus.Interpolated
			for w := 0; w < interpN; w++ {
				av, bv := ins[w].Recv(), ins[interpN+w].Recv()
				for row := 0; row < interpN; row++ {
					a[row][w], b[row][w] = av[row], bv[row]
				}
			}
			sum := correlate(c.Core, &a, &b)
			r.scores[r.lo+i][si] = sum
			r.res.Store(c.Core, i*len(r.shifts[1])+si, float32(sum))
		}
	}
}

// ParAutofocus runs the paper's MPMD streaming implementation (Sec. V-C,
// Fig. 9) on the simulated Epiphany chip: 13 cores in a dataflow pipeline.
// For each of the two pixel blocks, three cores compute the range
// interpolation (each owning one 4-column sliding window, with the input
// block forwarded core-to-core so each sees its shifted window) and three
// cores compute the beam interpolation; a single common core computes the
// correlation and summation and writes the criterion to external memory.
// Intermediate results stream between neighbouring cores over the mesh
// instead of through off-chip memory.
//
// Scores[pair][shift] is bit-identical to SeqAutofocus.
func ParAutofocus(ch *emu.Chip, pairs []BlockPair, shifts []autofocus.Shift) ([][]float64, error) {
	return ParAutofocusMulti(ch, 1, pairs, shifts)
}

// ParAutofocusMulti replicates the 13-core pipeline n times across a
// larger mesh (e.g. four pipelines on the 64-core device the paper's
// conclusions mention), splitting the block-pair stream across replicas.
// Unlike FFBP, the pipeline's traffic stays on-chip, so throughput scales
// with replicas until the input stream saturates the off-chip channel.
// All replicas form one flow.Graph whose node i runs on core i, or on the
// nearest free live core when a fault plan halted core i.
func ParAutofocusMulti(ch *emu.Chip, n int, pairs []BlockPair, shifts []autofocus.Shift) ([][]float64, error) {
	if len(pairs) == 0 || len(shifts) == 0 {
		return nil, fmt.Errorf("kernels: autofocus needs at least one pair and one shift")
	}
	if n < 1 {
		return nil, fmt.Errorf("kernels: need at least one pipeline")
	}
	if need := n * PipelineCores; len(ch.Cores) < need {
		return nil, fmt.Errorf("kernels: %d pipelines need %d cores, chip has %d", n, need, len(ch.Cores))
	}
	buf, err := packPairs(ch.Ext(), pairs)
	if err != nil {
		return nil, err
	}
	scores := make([][]float64, len(pairs))
	for i := range scores {
		scores[i] = make([]float64, len(shifts))
	}
	blockShifts := [2][]autofocus.Shift{make([]autofocus.Shift, len(shifts)), shifts}
	g := flow.NewGraph()
	for p, sl := range mat.Partition(len(pairs), n) {
		r := &afReplica{buf: buf, lo: sl.Lo, pairs: pairs[sl.Lo:sl.Hi], shifts: blockShifts, scores: scores}
		if r.res, err = machine.NewBufF(ch.Ext(), max(1, len(r.pairs)*len(shifts))); err != nil {
			return nil, err
		}
		if err := r.addTo(g, p); err != nil {
			return nil, err
		}
	}
	if err := g.Run(ch, nil); err != nil {
		return nil, fmt.Errorf("kernels: autofocus: %w", err)
	}
	return scores, nil
}
