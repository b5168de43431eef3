package kernels

import (
	"fmt"
	"math"

	"sarmany/internal/cf"
	"sarmany/internal/geom"
	"sarmany/internal/machine"
	"sarmany/internal/mat"
	"sarmany/internal/sar"
)

// SeqGBP runs exact global back-projection on machine m with the data and
// image in mem, charging the per-pixel-per-pulse cost: the range
// calculation (one hypot), the interpolated data fetch, and the phase
// compensation multiply. Its O(pixels x pulses) operation count against
// FFBP's O(pixels x log pulses) is the paper's motivation for the
// factorized algorithm ("the FFBP algorithm is much faster than the GBP
// algorithm"); comparing the two kernels' modeled times quantifies it.
//
// The image matches gbp.ImageRef (the retained unfused host reference)
// with nearest-neighbour interpolation and a single worker, bit for bit;
// the fused gbp.Image matches within its pinned ULP bound.
func SeqGBP(m machine.Machine, mem machine.Alloc, data *mat.C, p sar.Params, grid geom.PolarGrid) (*mat.C, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if data.Rows != p.NumPulses || data.Cols != p.NumBins {
		return nil, fmt.Errorf("kernels: data is %dx%d, params say %dx%d",
			data.Rows, data.Cols, p.NumPulses, p.NumBins)
	}
	dataBuf, err := machine.NewBufC(mem, p.NumPulses*p.NumBins)
	if err != nil {
		return nil, err
	}
	out, err := machine.NewBufC(mem, grid.NTheta*grid.NR)
	if err != nil {
		return nil, err
	}
	for i := 0; i < p.NumPulses; i++ {
		copy(dataBuf.Data[i*p.NumBins:(i+1)*p.NumBins], data.Row(i))
	}
	us := make([]float64, p.NumPulses)
	for i := range us {
		us[i] = p.TrackPos(i)
	}
	k := 4 * math.Pi / p.Wavelength

	for bt := 0; bt < grid.NTheta; bt++ {
		m.Charge(beamSetup)
		theta := grid.Theta(bt)
		ct, st := math.Cos(theta), math.Sin(theta)
		for bi := 0; bi < grid.NR; bi++ {
			m.Charge(machine.Ops{FMA: 3}) // r, x, y
			r := grid.Range(bi)
			x := r * ct
			y := r * st
			var acc complex64
			for pi, u := range us {
				// Range to the pulse position: one software hypot
				// (two FMAs + sqrt) plus the index generation.
				m.Charge(machine.Ops{FMA: 4})
				m.Charge(machine.Ops{Sqrt: 1})
				rp := math.Hypot(x-u, y)
				m.Charge(machine.Ops{Flop: 1})
				m.Charge(machine.Ops{IOp: 4})
				ri := int(math.Round(grid.RangeIndex(rp)))
				if ri < 0 || ri >= p.NumBins {
					continue
				}
				v := dataBuf.Load(m, pi*p.NumBins+ri)
				if v == 0 {
					continue
				}
				m.Charge(machine.Ops{Trig: 1}) // the sincos of exp(i*k*rp)
				m.Charge(machine.Ops{FMA: 4})  // the complex multiply
				m.Charge(machine.Ops{Flop: 2}) // the complex add
				acc += v * cf.Expi(float32(k*rp))
			}
			out.Store(m, bt*grid.NR+bi, acc)
		}
	}
	img := mat.NewC(grid.NTheta, grid.NR)
	for bt := 0; bt < grid.NTheta; bt++ {
		copy(img.Row(bt), out.Data[bt*grid.NR:(bt+1)*grid.NR])
	}
	return img, nil
}
