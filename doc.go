// Package sarmany is a library for energy-efficient synthetic-aperture
// radar (SAR) processing on manycore architectures, reproducing
// Zain-ul-Abdin, Åhlander and Svensson, "Energy-Efficient
// Synthetic-Aperture Radar Processing on a Manycore Architecture"
// (ICPP 2013).
//
// It provides, end to end:
//
//   - a stripmap SAR front end: scene/platform modelling, point-target
//     raw-echo synthesis, LFM chirp generation and pulse compression
//     ([Simulate], [SimulateRaw], [Compress]);
//   - time-domain image formation: exact global back-projection ([GBP])
//     and the fast factorized back-projection of the paper's
//     memory-intensive case study ([FFBP]), with selectable interpolation
//     kernels;
//   - the autofocus criterion calculation of the paper's compute-intensive
//     case study ([Criterion], [SearchCompensation]);
//   - cycle-accounting models of the two machines the paper compares — a
//     16-core Adapteva Epiphany ([NewEpiphany]) and a sequential Intel
//     Core i7 reference ([NewReferenceCPU]) — plus the paper's kernels
//     mapped onto them ([EpiphanyFFBP], [EpiphanyAutofocus], ...);
//   - the evaluation harness that regenerates the paper's Table I,
//     Fig. 7, and energy-efficiency results ([RunTable1], [RunFigure7]);
//   - a concurrent experiment runner with a content-addressed result
//     cache for batch sweeps over all of the above ([RunSweep]).
//
// See the examples/ directory for runnable walkthroughs, ARCHITECTURE.md
// for the package map (one row per package) and dataflow, and DESIGN.md
// for the design decisions and experiment index.
package sarmany
