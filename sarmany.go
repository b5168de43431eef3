// This file is the facade: type aliases and thin wrappers over the
// internal packages. The package doc comment lives in doc.go.
package sarmany

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"time"

	"sarmany/internal/autofocus"
	"sarmany/internal/bench"
	"sarmany/internal/conform"
	"sarmany/internal/emu"
	"sarmany/internal/energy"
	"sarmany/internal/fault"
	"sarmany/internal/ffbp"
	"sarmany/internal/fft"
	"sarmany/internal/gbp"
	"sarmany/internal/geom"
	"sarmany/internal/imageio"
	"sarmany/internal/interp"
	"sarmany/internal/kernels"
	"sarmany/internal/mat"
	"sarmany/internal/obs"
	"sarmany/internal/profile"
	"sarmany/internal/quality"
	"sarmany/internal/rda"
	"sarmany/internal/refcpu"
	"sarmany/internal/report"
	"sarmany/internal/sar"
	"sarmany/internal/serve"
	"sarmany/internal/sizing"
	"sarmany/internal/sweep"
	"sarmany/internal/telemetry"
)

// Radar front end.
type (
	// Params describes the radar system and collection geometry.
	Params = sar.Params
	// Target is a point scatterer in the scene.
	Target = sar.Target
	// PathError gives the platform's cross-track displacement vs track
	// position (nil = perfectly linear flight).
	PathError = sar.PathError
	// Chirp describes the transmitted LFM pulse.
	Chirp = sar.Chirp
)

// Imaging geometry and data containers.
type (
	// SceneBox bounds the imaged area.
	SceneBox = geom.SceneBox
	// PolarGrid is the sampling grid of a (sub)aperture image.
	PolarGrid = geom.PolarGrid
	// Image is a dense complex-valued image (rows = beams/pulses,
	// cols = range bins).
	Image = mat.C
	// MagImage is a dense real-valued (magnitude) image.
	MagImage = mat.F
)

// InterpKind selects an interpolation kernel for back-projection.
type InterpKind = interp.Kind

// Interpolation kernels: the paper's FFBP uses Nearest; its autofocus uses
// Cubic (Neville's algorithm).
const (
	Nearest = interp.Nearest
	Linear  = interp.Linear
	Cubic   = interp.Cubic
	// Sinc8 is the eight-tap windowed-sinc kernel — highest fidelity on
	// band-limited data, at twice Cubic's taps.
	Sinc8 = interp.Sinc8
)

// DefaultParams returns the paper-scale system: 1024 pulses x 1001 range
// bins of low-frequency stripmap SAR.
func DefaultParams() Params { return sar.DefaultParams() }

// SixTargetScene returns the paper's six-point-target validation scene.
func SixTargetScene(p Params) []Target { return sar.SixTargetScene(p) }

// RandomScene returns n deterministic pseudo-random point targets inside
// the given azimuth and range intervals.
func RandomScene(n int, seed int64, uMin, uMax, yMin, yMax float64) []Target {
	return sar.RandomScene(n, seed, uMin, uMax, yMin, yMax)
}

// DefaultSceneBox returns an imaged-area box matching the default scene.
func DefaultSceneBox(p Params) SceneBox { return report.DefaultBox(p) }

// Simulate synthesizes pulse-compressed radar data for targets observed
// with parameters p, optionally under a flight-path error.
func Simulate(p Params, targets []Target, pathErr PathError) *Image {
	return sar.Simulate(p, targets, pathErr)
}

// SimulateRaw synthesizes uncompressed chirp echoes; Compress
// matched-filters them back to range profiles.
func SimulateRaw(p Params, ch Chirp, targets []Target, pathErr PathError) *Image {
	return sar.SimulateRaw(p, ch, targets, pathErr)
}

// Compress matched-filters raw echo data against the chirp replica.
func Compress(p Params, ch Chirp, raw *Image) *Image { return sar.Compress(p, ch, raw) }

// WindowKind selects an amplitude taper for sidelobe control.
type WindowKind = fft.WindowKind

// Amplitude tapers for CompressWindowed.
const (
	RectWindow    = fft.Rect
	HannWindow    = fft.Hann
	HammingWindow = fft.Hamming
	TaylorWindow  = fft.Taylor
)

// CompressWindowed matched-filters raw echoes against an amplitude-
// weighted replica, trading mainlobe width for lower range sidelobes
// (e.g. ~-35 dB with TaylorWindow vs ~-13 dB unweighted).
func CompressWindowed(p Params, ch Chirp, raw *Image, kind WindowKind) *Image {
	return sar.CompressWindowed(p, ch, raw, kind)
}

// AddNoise adds circular complex white Gaussian noise (deviation sigma
// per sample) to data in place, deterministically from seed.
func AddNoise(data *Image, sigma float64, seed int64) *Image {
	return sar.AddNoise(data, sigma, seed)
}

// InjectRFI adds a narrowband interference tone (normalized frequency in
// cycles/sample, amplitude amp, per-pulse phase drift dphase) to every
// pulse of data — the contamination low-frequency SAR suffers from
// broadcast transmitters.
func InjectRFI(data *Image, freq float64, amp float32, dphase float64) *Image {
	return sar.InjectRFI(data, freq, amp, dphase)
}

// UpsampleRange band-limit-interpolates every range profile by an integer
// factor (FFT zero-padding), returning the finer data and adjusted
// parameters. Oversampling shrinks the nearest-neighbour quantization —
// and with it the phase noise FFBP's simplified interpolation accumulates
// per merge iteration — by the same factor.
func UpsampleRange(data *Image, p Params, factor int) (*Image, Params, error) {
	return sar.UpsampleRange(data, p, factor)
}

// NotchFilter excises anomalous narrowband spectral lines from every
// pulse (threshold times the median spectral magnitude; typical 4-8),
// returning how many bins were notched.
func NotchFilter(data *Image, threshold float64) (int, error) {
	return sar.NotchFilter(data, threshold)
}

// FFBP forms an image by fast factorized back-projection (merge base 2)
// and returns it with its polar grid. kind selects the child-image
// interpolation (the paper uses Nearest); workers <= 0 uses all CPUs.
func FFBP(data *Image, p Params, box SceneBox, kind InterpKind, workers int) (*Image, PolarGrid, error) {
	return ffbp.Image(data, p, box, ffbp.Config{Interp: kind, Workers: workers})
}

// RDA forms an image with the frequency-domain range-Doppler algorithm —
// the computationally cheap method the paper's introduction contrasts
// with time-domain back-projection; it structurally assumes a linear
// constant-speed track. Output rows are azimuth positions (TrackPos
// order), columns slant-range bins.
func RDA(data *Image, p Params) (*Image, error) {
	return rda.Image(data, p, rda.Config{RCMC: Linear})
}

// MotionCompensate references pulse-compressed data collected on a known
// non-linear path back to the nominal straight track (per-pulse range
// resampling + carrier phase restoration) — the GPS/INS-based
// compensation of the paper's Sec. II-A.
func MotionCompensate(data *Image, p Params, pathErr PathError) *Image {
	return sar.MotionCompensate(data, p, pathErr)
}

// FFBPBase forms an image with a generalized factorization base k >= 2
// (NumPulses must be a power of k): higher bases run fewer merge levels —
// less accumulated interpolation noise, more lookups per level. FFBPBase
// with k=2 matches FFBP.
func FFBPBase(data *Image, p Params, box SceneBox, kind InterpKind, k int) (*Image, PolarGrid, error) {
	return ffbp.ImageK(data, p, box, ffbp.Config{Interp: kind}, k)
}

// GBP forms an image by exact global back-projection on the given grid
// (use FullApertureGrid). It is the quality reference FFBP approximates.
func GBP(data *Image, p Params, grid PolarGrid, kind InterpKind, workers int) *Image {
	return gbp.Image(data, p, grid, gbp.Config{Interp: kind, Workers: workers})
}

// FocusConfig controls autofocused FFBP image formation.
type FocusConfig = ffbp.FocusConfig

// DefaultFocusConfig returns the standard autofocus configuration for an
// np-pulse aperture: the compensation estimated at the final merge with a
// 21-candidate sweep (set FromLevel lower to autofocus more levels).
func DefaultFocusConfig(np int) FocusConfig { return ffbp.DefaultFocusConfig(np) }

// FocusedFFBP forms an image by FFBP with integrated autofocus: before
// each merge from fc.FromLevel on, the flight-path compensation of every
// subaperture pair is estimated with the focus criterion and applied
// during element combining (paper Sec. II-A). It returns the image, its
// grid, and the estimated compensations per autofocused level.
func FocusedFFBP(data *Image, p Params, box SceneBox, fc FocusConfig) (*Image, PolarGrid, [][]Shift, error) {
	return ffbp.FocusedImage(data, p, box, fc)
}

// FullApertureGrid returns the polar grid of the final full-aperture
// image over box: NumPulses beams x NumBins range bins.
func FullApertureGrid(p Params, box SceneBox) PolarGrid {
	full := geom.Aperture{Center: 0, Length: p.ApertureLength()}
	return box.GridFor(full, p.NumPulses, p.NumBins, p.R0, p.DR)
}

// Autofocus criterion calculation.
type (
	// Block is a 6x6 pixel block from a subaperture image.
	Block = autofocus.Block
	// Shift is a trial flight-path compensation in image pixels.
	Shift = autofocus.Shift
	// FocusResult is one evaluated compensation candidate.
	FocusResult = autofocus.Result
)

// BlockFrom extracts the 6x6 block of img with top-left corner (r0, c0).
func BlockFrom(img *Image, r0, c0 int) (Block, error) { return autofocus.BlockFrom(img, r0, c0) }

// Criterion evaluates the paper's focus criterion (eq. 6) for a block
// pair under a trial compensation; higher means better focus.
func Criterion(fMinus, fPlus *Block, s Shift) float64 {
	return autofocus.Criterion(fMinus, fPlus, s)
}

// SearchCompensation evaluates all candidate compensations and returns
// the best one plus every score.
func SearchCompensation(fMinus, fPlus *Block, candidates []Shift) (FocusResult, []FocusResult, error) {
	return autofocus.Search(fMinus, fPlus, candidates)
}

// RangeSweep returns n candidate compensations with range shifts evenly
// spaced in [lo, hi] pixels.
func RangeSweep(lo, hi float64, n int) []Shift { return autofocus.RangeSweep(lo, hi, n) }

// Machine models.
type (
	// Epiphany is a simulated Adapteva Epiphany chip.
	Epiphany = emu.Chip
	// EpiphanyParams configures the chip model.
	EpiphanyParams = emu.Params
	// ReferenceCPU is the simulated sequential Intel i7 reference.
	ReferenceCPU = refcpu.CPU
	// BlockPair is one autofocus work item (the f- and f+ blocks).
	BlockPair = kernels.BlockPair
)

// EpiphanyE16G3 returns the paper's 16-core chip configuration at 1 GHz.
func EpiphanyE16G3() EpiphanyParams { return emu.E16G3() }

// EpiphanyE64 returns a 64-core configuration (the paper's outlook).
func EpiphanyE64() EpiphanyParams { return emu.E64() }

// NewEpiphany constructs a simulated chip. A chip is single-shot: run one
// workload, then read Time() and TotalStats().
func NewEpiphany(p EpiphanyParams) *Epiphany { return emu.New(p) }

// NewReferenceCPU constructs the sequential Intel i7-M620 model.
func NewReferenceCPU() *ReferenceCPU { return refcpu.New(refcpu.I7M620()) }

// EpiphanyFFBP runs the paper's parallel SPMD FFBP implementation on
// nCores cores of chip (0 = all) and returns the image; chip.Time() then
// gives the modeled execution time.
func EpiphanyFFBP(chip *Epiphany, nCores int, data *Image, p Params, box SceneBox) (*Image, PolarGrid, error) {
	return kernels.ParFFBP(chip, nCores, data, p, box)
}

// EpiphanySeqFFBP runs FFBP sequentially on one core of chip with the
// image data in external SDRAM (the paper's sequential Epiphany variant).
func EpiphanySeqFFBP(chip *Epiphany, data *Image, p Params, box SceneBox) (*Image, PolarGrid, error) {
	return kernels.SeqFFBP(chip.Cores[0], chip.Ext(), data, p, box)
}

// ReferenceFFBP runs FFBP sequentially on the Intel reference model.
func ReferenceFFBP(cpu *ReferenceCPU, data *Image, p Params, box SceneBox) (*Image, PolarGrid, error) {
	return kernels.SeqFFBP(cpu, cpu.Mem(), data, p, box)
}

// EpiphanyAutofocus runs the paper's 13-core MPMD streaming autofocus
// pipeline: Scores[pair][shift] is the criterion of each pair under each
// candidate compensation.
func EpiphanyAutofocus(chip *Epiphany, pairs []BlockPair, shifts []Shift) ([][]float64, error) {
	return kernels.ParAutofocus(chip, pairs, shifts)
}

// EpiphanyAutofocusMulti replicates the 13-core pipeline n times across a
// larger mesh (four replicas fit the 64-core device), splitting the
// block-pair stream across them.
func EpiphanyAutofocusMulti(chip *Epiphany, n int, pairs []BlockPair, shifts []Shift) ([][]float64, error) {
	return kernels.ParAutofocusMulti(chip, n, pairs, shifts)
}

// EpiphanySeqAutofocus runs the same workload on one Epiphany core.
func EpiphanySeqAutofocus(chip *Epiphany, pairs []BlockPair, shifts []Shift) ([][]float64, error) {
	return kernels.SeqAutofocus(chip.Cores[0], chip.Ext(), pairs, shifts)
}

// ReferenceAutofocus runs the same workload on the Intel reference model.
func ReferenceAutofocus(cpu *ReferenceCPU, pairs []BlockPair, shifts []Shift) ([][]float64, error) {
	return kernels.SeqAutofocus(cpu, cpu.Mem(), pairs, shifts)
}

// CheckChip verifies the structural invariants of a completed chip run —
// cycle identities, stall breakdowns, phase tiling and barrier
// resolution, link balance, off-chip channel drain, trace monotonicity,
// and (when the chip was traced) the profiler's critical-path and energy
// accounting. It returns nil when every invariant holds and an error
// naming each violation otherwise. Call it after any Epiphany* run, never
// concurrently with one.
func CheckChip(chip *Epiphany) error { return conform.CheckAll(chip).Err() }

// Evaluation harness.
type (
	// ExperimentConfig selects workload scale and machine parameters.
	ExperimentConfig = report.Config
	// Table1 is the reproduced paper Table I plus energy ratios.
	Table1 = report.Table1
	// Fig7Metrics carries the Fig. 7 quality comparison.
	Fig7Metrics = bench.Fig7Result
)

// PaperExperiment returns the paper-scale experiment configuration;
// SmallExperiment a fast reduced-scale one.
func PaperExperiment() ExperimentConfig { return report.Default() }

// SmallExperiment returns a reduced-scale experiment configuration.
func SmallExperiment() ExperimentConfig { return report.Small() }

// RunTable1 reruns all six Table I implementations.
func RunTable1(cfg ExperimentConfig) (*Table1, error) {
	return report.RunTable1(context.Background(), cfg)
}

// RunTable1Ctx is RunTable1 with a caller-supplied context: cancellation
// (or a deadline) stops the experiment at the next simulation boundary.
func RunTable1Ctx(ctx context.Context, cfg ExperimentConfig) (*Table1, error) {
	return report.RunTable1(ctx, cfg)
}

// RunFigure7 recomputes the Fig. 7 image set (raw data, GBP, FFBP on both
// machines) and its quality metrics.
func RunFigure7(cfg ExperimentConfig) (Fig7Metrics, [4]*Image, error) {
	return bench.RunFigure7(context.Background(), cfg)
}

// WriteFigure7 writes the Fig. 7 images as PNGs into dir and the metrics
// to w.
func WriteFigure7(w io.Writer, cfg ExperimentConfig, dir string) error {
	if dir == "" {
		return errors.New("sarmany: WriteFigure7 needs an image directory")
	}
	return bench.Experiment(context.Background(), "fig7", w, cfg, "", dir)
}

// Concurrent experiment sweeps.
type (
	// SweepJob is one simulation of a sweep: a workload selector (a
	// benchtab experiment key, or any label a custom runner interprets)
	// applied to one experiment configuration, with optional Extra
	// workload parameters.
	SweepJob = sweep.Job
	// SweepOptions configures a sweep run: worker count, result cache
	// directory, per-job timeout, metrics registry, and runner override.
	SweepOptions = sweep.Options
	// SweepJobResult is one job's outcome, returned at the same index as
	// its job regardless of completion order.
	SweepJobResult = sweep.JobResult
	// BenchResult is the machine-readable experiment envelope
	// (the BENCH_<name>.json form).
	BenchResult = bench.Result
	// MetricsRegistry collects named counters, gauges, and histograms;
	// see SweepOptions.Metrics.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a registry's metrics
	// (MetricsRegistry.Snapshot): the input of WritePrometheus,
	// WriteExpvar, and the ledger's metric maps.
	MetricsSnapshot = obs.Snapshot
)

// NewMetricsRegistry returns an empty metrics registry (for
// SweepOptions.Metrics and the other instrumented subsystems).
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// RunSweep fans the jobs out across a bounded worker pool and returns
// their results in input order. Each job runs with panic recovery and an
// optional timeout; with SweepOptions.CacheDir set, completed envelopes
// are cached by a content address of their configuration and replayed
// byte-identically on reruns.
func RunSweep(ctx context.Context, jobs []SweepJob, opt SweepOptions) ([]SweepJobResult, error) {
	return sweep.Run(ctx, jobs, opt)
}

// Serving layer (cmd/sarserve; see docs/API.md and docs/OPERATIONS.md).
type (
	// JobServer is the SAR-as-a-service core: batching, admission
	// control, content-addressed job store, and the HTTP handler set
	// (Handler). cmd/sarserve wraps it in a daemon.
	JobServer = serve.Server
	// JobServerOptions configures a JobServer: worker pool, cache
	// directory, batching policy, queue bound, tenant quotas, job
	// timeout, and ledger directory.
	JobServerOptions = serve.Options
	// JobServerSpec is one submission: experiment key, scale, tenant,
	// tag, and optional timeout — the POST /v1/jobs body.
	JobServerSpec = serve.JobSpec
	// JobServerInfo is a job's externally visible record: its
	// content-addressed ID, status, timing, and run-ledger reference.
	JobServerInfo = serve.JobInfo
	// TenantQuota is the per-tenant token-bucket admission budget.
	TenantQuota = serve.QuotaConfig
)

// NewJobServer assembles a job server; mount its Handler on an
// http.Server and call Drain on shutdown.
func NewJobServer(opt JobServerOptions) *JobServer { return serve.NewServer(opt) }

// SweepData returns a sweep result's experiment data as its concrete
// type, decoding the raw payload when the envelope was replayed from the
// cache. The type is the same for a fresh and a replayed run of every
// built-in experiment (a "t1" job yields *Table1 either way). It only
// understands the built-in benchtab envelopes; custom runners decode
// their own.
func SweepData(r SweepJobResult) (any, error) {
	if raw, ok := r.Result.Data.(json.RawMessage); ok {
		return bench.DecodeData(r.Result.Name, raw)
	}
	return r.Result.Data, nil
}

// SaveImage renders a complex image (magnitude, dB scale) to a .png or
// .pgm file.
func SaveImage(path string, img *Image, dynamicRangeDB float64) error {
	return imageio.Save(path, img, dynamicRangeDB)
}

// Magnitude returns the magnitude image of img.
func Magnitude(img *Image) *MagImage { return quality.Mag(img) }

// Sharpness returns the normalized fourth-power sharpness of a magnitude
// image (a standard focus-quality measure).
func Sharpness(m *MagImage) float64 { return quality.Sharpness(m) }

// ImageCorrelation returns the normalized correlation of two magnitude
// images.
func ImageCorrelation(a, b *MagImage) float64 { return quality.NormCorr(a, b) }

// ImageEntropy returns the Shannon entropy of the image's power
// distribution — the entropy-minimization focus measure (lower = more
// concentrated = better focused).
func ImageEntropy(m *MagImage) float64 { return quality.Entropy(m) }

// PointResponse carries the -3 dB widths and peak-to-sidelobe ratios of a
// point-target response.
type PointResponse = quality.PointResponse

// MeasurePointResponse analyses the impulse response around the brightest
// pixel of a magnitude image: range/azimuth IRW (pixels) and PSLR (dB).
func MeasurePointResponse(m *MagImage) (PointResponse, error) {
	return quality.MeasurePointResponse(m)
}

// GroundSpec describes a Cartesian ground raster for geocoded display.
type GroundSpec = imageio.GroundSpec

// GroundSpecFor returns a raster covering box at the given resolution (m).
func GroundSpecFor(box SceneBox, res float64) (GroundSpec, error) {
	return imageio.GroundSpecFor(box, res)
}

// ToGround resamples a polar image (grid g, subaperture centred at track
// position center — 0 for full-aperture images) onto a Cartesian ground
// raster.
func ToGround(img *Image, g PolarGrid, center float64, spec GroundSpec, kind InterpKind) *Image {
	return imageio.ToGround(img, g, center, spec, kind)
}

// Real-time deployment sizing (the paper's motivating constraint).
type (
	// Requirement is the real-time processing constraint of a collection.
	Requirement = sizing.Requirement
	// Capability is one processing device's throughput and power.
	Capability = sizing.Capability
	// Plan is a sized deployment for one device type.
	Plan = sizing.Plan
)

// RequirementFor derives the real-time requirement from radar parameters
// and platform speed (m/s).
func RequirementFor(p Params, speedMS float64) (Requirement, error) {
	return sizing.RequirementFor(p, speedMS)
}

// SizeDeployment sizes each candidate device against the requirement.
func SizeDeployment(r Requirement, devices []Capability) ([]Plan, error) {
	return sizing.Compare(r, devices)
}

// EnergyBreakdown decomposes an Epiphany run's energy into architectural
// components (compute, local memory, mesh, eLink, static).
type EnergyBreakdown = energy.Breakdown

// MeasureEnergy estimates the energy breakdown of a completed chip run.
func MeasureEnergy(chip *Epiphany) EnergyBreakdown {
	return energy.EpiphanyBreakdown(chip.TotalStats(), chip.Time())
}

// Trace-driven profiling.
type (
	// Tracer records per-core span tracks during a simulation; attach one
	// with Epiphany.SetTracer before running a kernel. Attaching a tracer
	// never changes modeled time.
	Tracer = obs.Tracer
	// RunProfile is the post-hoc analysis of a traced chip run: critical
	// path with per-cause attribution, per-phase energy rows, roofline
	// classification, and mesh heatmaps. WriteText and WriteHTML render
	// it; cmd/sarprof is the CLI front end.
	RunProfile = profile.Profile
)

// NewTracer returns a span tracer for a machine clocked at clockHz.
func NewTracer(clockHz float64) *Tracer { return obs.NewTracer(clockHz) }

// ProfileChip analyzes a completed traced run (the chip must have had a
// tracer attached before the kernel ran).
func ProfileChip(chip *Epiphany) (*RunProfile, error) { return profile.AnalyzeChip(chip) }

// Deterministic fault injection.
type (
	// FaultPlan is one declarative fault scenario: hard-halted cores,
	// per-core frequency derates, an SDRAM bandwidth cut, and seeded
	// probabilistic link/DMA faults. The zero plan injects nothing.
	FaultPlan = fault.Plan
	// FaultInjector is a compiled, validated plan ready to attach to an
	// Epiphany chip with Epiphany.SetFaults. The same injector replayed
	// over the same workload is bit-identical.
	FaultInjector = fault.Injector
	// LinkFault, DMAFault and CoreDerate are the plan's entry types.
	LinkFault  = fault.LinkFault
	DMAFault   = fault.DMAFault
	CoreDerate = fault.Derate
	// DegradationReport is the profiler's fault-cost section: per-target
	// rows for retransmission, DMA timeouts, derating and remapping that
	// sum to the measured whole-run overhead (RunProfile.Faults).
	DegradationReport = profile.Degradation
	// ChaosPoint is one fault-severity measurement of RunChaosSweep.
	ChaosPoint = bench.ChaosPoint
)

// ParseFaultPlan reads the line-oriented fault-plan text format (see
// internal/fault: "halt 5", "derate 3 1.5", "link 0 1 0.1 timeout 500",
// "dma * 0.02", "ext-derate 0.5", "seed 42").
func ParseFaultPlan(text string) (FaultPlan, error) { return fault.Parse(text) }

// ParseFaultPlanFile reads and parses a fault-plan file.
func ParseFaultPlanFile(path string) (FaultPlan, error) { return fault.ParseFile(path) }

// CompileFaultPlan validates a plan and compiles it into an injector;
// attach the result with Epiphany.SetFaults before running a kernel. An
// empty plan compiles to a no-op injector: the run is bit-identical to an
// uninjected one.
func CompileFaultPlan(p FaultPlan) (*FaultInjector, error) { return p.Compile() }

// ChaosFaultPlan builds the canonical chaos-sweep plan for a severity in
// [0, 1] on a run using the given core count: severity-scaled link and
// DMA fault rates, a derated core, a throttled SDRAM channel, and — at
// severity 1 — one hard-halted core.
func ChaosFaultPlan(severity float64, cores int) FaultPlan {
	return bench.ChaosPlan(severity, cores)
}

// RunChaosSweep measures parallel FFBP under a grid of fault severities —
// the degradation curve of graceful completion. Every point records
// modeled time, energy, retry/remap counts and whether the degraded run
// still passed the conformance checker.
func RunChaosSweep(ctx context.Context, cfg ExperimentConfig, severities []float64) ([]ChaosPoint, error) {
	return bench.RunChaos(ctx, cfg, severities)
}

// Run ledger and telemetry exposition.
type (
	// RunLedger is the append-only, content-addressed store of run
	// manifests the CLIs write under out/runs/; query it programmatically
	// or with cmd/sarlog.
	RunLedger = telemetry.Ledger
	// RunManifest is one ledger entry: the full provenance of a run
	// (parameters, seed, fault plan, code version, host) plus its metric
	// snapshot and optional bench envelope.
	RunManifest = telemetry.Entry
	// FlightRecorder samples a live chip's per-core progress on a
	// heartbeat, renders a status line, and dumps a post-mortem when a
	// stall watchdog or wall-clock deadline fires.
	FlightRecorder = telemetry.Recorder
	// FlightRecorderOptions configures the recorder: the progress probe,
	// heartbeat interval, stall/deadline watchdogs, status writer, and
	// post-mortem path.
	FlightRecorderOptions = telemetry.Options
)

// OpenRunLedger opens (lazily creating) the run ledger in dir.
func OpenRunLedger(dir string) *RunLedger { return telemetry.Open(dir) }

// NewRunManifest assembles the shared provenance fields of a manifest:
// tool, args, wall clock, code version, host shape, and the
// content-hashed configuration document.
func NewRunManifest(tool string, start time.Time, config any, args ...string) (RunManifest, error) {
	return telemetry.NewEntry(tool, start, config, args...)
}

// RecordRun appends a manifest to the ledger in dir and returns the run
// ID; an empty dir disables recording and returns an empty ID.
func RecordRun(dir string, e RunManifest) (string, error) { return telemetry.Record(dir, e) }

// StartFlightRecorder starts the heartbeat goroutine; call Stop on the
// returned recorder when the run completes. Attach the chip's progress
// probe by enabling Epiphany progress cells first (EnableProgress).
func StartFlightRecorder(opt FlightRecorderOptions) *FlightRecorder {
	return telemetry.Start(opt)
}

// WritePrometheus renders a metric snapshot in Prometheus text
// exposition format (histograms as cumulative buckets with p50/p90/p99
// quantile gauges alongside).
func WritePrometheus(w io.Writer, snap MetricsSnapshot, namespace string) error {
	return telemetry.WritePrometheus(w, snap, namespace)
}

// WriteExpvar renders a metric snapshot as one expvar-compatible JSON
// object.
func WriteExpvar(w io.Writer, snap MetricsSnapshot) error { return telemetry.WriteExpvar(w, snap) }
