// Package core implements the paper's primary contribution: the adaptive
// inter-GPU compression scheme (Sec. V). The controller alternates between a
// short sampling phase — every candidate codec compresses the same transfers
// and a penalty function picks a winner by outcome voting — and a long
// running phase during which only the selected codec (or no codec at all)
// touches the data.
//
// The penalty function is Eq. (1) of the paper:
//
//	P = N + λ(Lc + Ld)
//
// where N is the compressed size in bits and Lc/Ld are the compression and
// decompression latencies in cycles. λ trades bandwidth for latency: λ=0
// always maximizes compression ratio, large λ prefers fast codecs (BDI), and
// the paper finds λ=6 the best balance.
package core

import (
	"fmt"
	"math"

	"mgpucompress/internal/comp"
	"mgpucompress/internal/metrics"
)

// Defaults from Sec. V / Sec. VII-A2 of the paper.
const (
	DefaultSampleCount = 7
	DefaultRunLength   = 300
	DefaultLambda      = 6.0
)

// Decision describes how the policy handled one cache-line transfer.
type Decision struct {
	// Alg is the wire algorithm: the value of the message Comp Alg field.
	// None means the payload ships raw and the receiver bypasses the
	// decompressor.
	Alg comp.Algorithm
	// Enc is the encoding actually shipped. For Alg == None, Enc.Bits is
	// comp.LineBits and Enc.Data holds the raw line.
	Enc comp.Encoded
	// CompressionCycles is the latency added at the sender before the
	// payload can enter the fabric.
	CompressionCycles int
	// DecompressionCycles is the latency added at the receiver before the
	// data is usable.
	DecompressionCycles int
	// CodecEnergyPJ is the compressor+decompressor energy spent on this
	// transfer, including codecs that ran but lost (sampling phase).
	CodecEnergyPJ float64
	// Sampling reports whether the transfer was part of a sampling phase.
	Sampling bool
}

// WireBytes returns the payload size on the fabric for this decision.
func (d Decision) WireBytes() int { return d.Enc.WireBytes() }

// Policy decides, per transfer, how to compress a cache line.
type Policy interface {
	// Name identifies the policy in reports (e.g. "BDI", "Adaptive λ=6").
	Name() string
	// Process handles one 64-byte line transfer. It appends the bytes that
	// ship to dst and returns them as Decision.Enc.Data, the extended dst:
	// CompressInto's contract, so a caller that passes buf[:0] of a buffer
	// it owns gets its payload there without an allocation.
	Process(dst, line []byte) Decision
}

// Uncompressed is the baseline policy: every line ships raw.
type Uncompressed struct{}

// Name implements Policy.
func (Uncompressed) Name() string { return "None" }

// Process implements Policy. It also takes payloads shorter than a line,
// which no codec can encode: the transport ships those raw whatever its
// policy is.
func (Uncompressed) Process(dst, line []byte) Decision {
	return Decision{Alg: comp.None, Enc: rawLine(dst, line)}
}

// rawLine is the raw encoding every policy ships when it bypasses the
// codecs: the payload appended to dst, sized at 8 bits per byte (LineBits
// for a whole line).
func rawLine(dst, line []byte) comp.Encoded {
	return comp.Encoded{
		Alg:          comp.None,
		Bits:         len(line) * 8,
		Data:         append(dst, line...),
		Uncompressed: true,
	}
}

// Static always runs a single codec (Sec. VII-A1). If the codec cannot
// shrink a line, the line ships raw — the compression latency and energy
// were still spent, but the receiver skips decompression (Comp Alg = 0).
type Static struct {
	c comp.Compressor
}

// NewStatic builds a static policy around the codec for alg.
func NewStatic(alg comp.Algorithm) *Static {
	c := comp.NewCompressor(alg)
	if c == nil {
		panic(fmt.Sprintf("core: no compressor for %v", alg))
	}
	return &Static{c: c}
}

// Name implements Policy.
func (s *Static) Name() string { return s.c.Algorithm().String() }

// Process implements Policy.
func (s *Static) Process(dst, line []byte) Decision { return encode(s.c, dst, line) }

// encode is the decision of a policy that runs the single codec c on line,
// appending the shipped bytes to dst:
// the compression latency and energy are spent either way, and the line
// ships compressed (paying c's decompression) unless c could not shrink it,
// in which case it ships raw and the receiver bypasses the decompressor.
func encode(c comp.Compressor, dst, line []byte) Decision {
	cost := c.Cost()
	d := Decision{
		Alg:               c.Algorithm(),
		Enc:               c.CompressInto(dst, line),
		CompressionCycles: cost.CompressionCycles,
		CodecEnergyPJ:     cost.CompressionEnergyPJ(),
	}
	if d.Enc.Uncompressed {
		d.Alg = comp.None
		return d
	}
	d.DecompressionCycles = cost.DecompressionCycles
	d.CodecEnergyPJ += cost.DecompressionEnergyPJ()
	return d
}

// Config parameterizes the adaptive policy.
type Config struct {
	// Lambda is λ in Eq. (1). Zero is λ=0, a valid setting (the Fig. 6
	// "Adaptive λ=0" bar), not a default; pass DefaultLambda for the
	// paper's λ=6. It must pass ValidateLambda.
	Lambda float64
	// SampleCount is the number of sampled transfers per phase (default 7).
	SampleCount int
	// RunLength is the number of transfers in the running phase (default
	// 300).
	RunLength int
	// Candidates are the codecs to choose from. Default: FPC, BDI,
	// C-Pack+Z. The paper notes the scheme also works with a single codec,
	// degenerating into an on/off decision; that is supported by passing
	// one candidate.
	Candidates []comp.Compressor
	// DegradeK is the graceful-degradation threshold: after K consecutive
	// codec-attributed integrity failures (ObserveIntegrity(false) from the
	// transport's reliability guard) the controller forces bypass for its
	// next running phase. Default 3.
	DegradeK int
}

// ValidateLambda rejects a λ the controller cannot use: a negative one,
// and a NaN or infinite one, which makes every candidate's penalty NaN
// (Inf×0 is NaN) so that no codec ever wins.
func ValidateLambda(l float64) error {
	if !finite(l) {
		return fmt.Errorf("non-finite lambda %g", l)
	}
	if l < 0 {
		return fmt.Errorf("negative lambda %g", l)
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func (c *Config) fillDefaults() {
	if c.SampleCount <= 0 {
		c.SampleCount = DefaultSampleCount
	}
	if c.RunLength <= 0 {
		c.RunLength = DefaultRunLength
	}
	if len(c.Candidates) == 0 {
		c.Candidates = comp.AllCompressors()
	}
	if c.DegradeK <= 0 {
		c.DegradeK = 3
	}
}

// IntegrityObserver is implemented by policies that react to end-to-end
// payload integrity outcomes. The RDMA engine's reliability guard calls it
// with false for every codec-attributed CRC failure (a NACK naming a
// nonzero Comp Alg) and true when a compressed transfer completes cleanly.
type IntegrityObserver interface {
	ObserveIntegrity(ok bool)
}

// PhaseHook observes the controller's phase transitions: it fires when a
// sampling phase closes (sampling=false, with the algorithm selected for the
// running phase) and when a running phase ends (sampling=true). The platform
// uses it to record phase spans on the trace timeline.
type PhaseHook func(sampling bool, selected comp.Algorithm)

// Adaptive is the paper's adaptive compression controller. NewAdaptive
// builds it with the paper's fixed λ; NewDynamicAdaptive builds it in the
// dynamic-λ mode (dynamic.go).
type Adaptive struct {
	cfg Config

	// phase state
	sampling   bool
	phasePos   int
	votes      []int     // per candidate index; last slot = bypass (None)
	votePen    []float64 // cumulative penalty, used to break ties
	selected   int       // candidate index, len(candidates) = bypass
	selections []comp.Algorithm

	processed uint64
	hook      PhaseHook

	// integrity / graceful-degradation state
	integFails     int  // consecutive codec-attributed failures
	degradePending bool // force bypass at the next sampling-phase close
	degradedPhases uint64

	// maxCompressionCycles is the sampling-phase latency: the paper notes
	// that running all codecs concurrently costs the slowest codec's
	// latency.
	maxCompressionCycles int

	dyn dynamicLambda // zero unless built by NewDynamicAdaptive
}

// NewAdaptive builds an adaptive policy. A zero Config selects λ=0 and the
// paper's defaults for the rest (7 samples, 300-transfer running phase, all
// three codecs); set Lambda to DefaultLambda for the paper's λ=6. It
// panics on a λ that ValidateLambda rejects.
func NewAdaptive(cfg Config) *Adaptive {
	if err := ValidateLambda(cfg.Lambda); err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	cfg.fillDefaults()
	a := &Adaptive{
		cfg:      cfg,
		sampling: true,
		votes:    make([]int, len(cfg.Candidates)+1),
		votePen:  make([]float64, len(cfg.Candidates)+1),
		selected: len(cfg.Candidates),
	}
	for _, c := range cfg.Candidates {
		if l := c.Cost().CompressionCycles; l > a.maxCompressionCycles {
			a.maxCompressionCycles = l
		}
	}
	return a
}

// Name implements Policy.
func (a *Adaptive) Name() string {
	if a.dynamic() {
		return "Adaptive λ=dynamic"
	}
	return fmt.Sprintf("Adaptive λ=%g", a.cfg.Lambda)
}

// Penalty evaluates Eq. (1) for a compressed size in bits and codec
// latencies in cycles.
func Penalty(lambda float64, bits, compCycles, decompCycles int) float64 {
	return float64(bits) + lambda*float64(compCycles+decompCycles)
}

// Selected returns the algorithm currently chosen for the running phase
// (comp.None when bypassing), and whether the controller is sampling.
func (a *Adaptive) Selected() (comp.Algorithm, bool) {
	if a.selected == len(a.cfg.Candidates) {
		return comp.None, a.sampling
	}
	return a.cfg.Candidates[a.selected].Algorithm(), a.sampling
}

// SelectionHistory returns the algorithm chosen after each completed
// sampling phase, in order.
func (a *Adaptive) SelectionHistory() []comp.Algorithm {
	return append([]comp.Algorithm(nil), a.selections...)
}

// SetPhaseHook installs the phase-transition observer.
func (a *Adaptive) SetPhaseHook(h PhaseHook) { a.hook = h }

// SetDegradeK overrides the degradation threshold after construction (the
// fault profile's degradek knob reaches the controller this way).
func (a *Adaptive) SetDegradeK(k int) {
	if k > 0 {
		a.cfg.DegradeK = k
	}
}

// ObserveIntegrity implements IntegrityObserver. K consecutive failures arm
// graceful degradation: the next sampling phase closes on bypass regardless
// of the votes, so the following running phase ships every line raw while
// the (possibly faulty) compression path sits out. The event is counted in
// DegradedPhases.
func (a *Adaptive) ObserveIntegrity(ok bool) {
	if ok {
		a.integFails = 0
		return
	}
	a.integFails++
	if a.integFails >= a.cfg.DegradeK && !a.degradePending {
		a.degradePending = true
		a.degradedPhases++
		a.integFails = 0
	}
}

// DegradedPhases returns how many running phases were forced to bypass by
// integrity failures.
func (a *Adaptive) DegradedPhases() uint64 { return a.degradedPhases }

// Process implements Policy. In dynamic-λ mode, λ is recalibrated at the
// boundary into each sampling phase, before the transfer is counted.
func (a *Adaptive) Process(dst, line []byte) Decision {
	if a.dynamic() && a.processed%a.dyn.period == 0 && a.processed > 0 {
		a.recalibrate()
	}
	a.processed++
	if a.sampling {
		return a.processSample(dst, line)
	}
	return a.processRunning(dst, line)
}

func (a *Adaptive) processSample(dst, line []byte) Decision {
	nCand := len(a.cfg.Candidates)

	// Run every candidate on this transfer; all compressors run
	// concurrently in hardware, so the added latency is the slowest
	// compressor, and every compressor burns its compression energy. The
	// penalty function consumes only the compressed size, so each candidate
	// is probed with CompressedBits (its own encoder, run into the codec's
	// scratch) and only the winner is encoded, into dst.
	energy := 0.0
	bestIdx := nCand // bypass
	bestBits := comp.LineBits
	bestPen := Penalty(a.cfg.Lambda, comp.LineBits, 0, 0)
	for i, c := range a.cfg.Candidates {
		cost := c.Cost()
		energy += cost.CompressionEnergyPJ()
		bits := c.CompressedBits(line)
		pen := Penalty(a.cfg.Lambda, bits, cost.CompressionCycles, cost.DecompressionCycles)
		if pen < bestPen {
			bestPen, bestIdx, bestBits = pen, i, bits
		}
		a.votePen[i] += pen
	}
	a.votePen[nCand] += Penalty(a.cfg.Lambda, comp.LineBits, 0, 0)
	a.votes[bestIdx]++

	// The sampled transfer itself ships with the per-sample winner.
	d := Decision{Sampling: true, CompressionCycles: a.maxCompressionCycles, CodecEnergyPJ: energy}
	if bestIdx == nCand || bestBits == comp.LineBits {
		d.Alg = comp.None
		d.Enc = rawLine(dst, line)
	} else {
		winner := a.cfg.Candidates[bestIdx]
		d.Alg = winner.Algorithm()
		d.Enc = winner.CompressInto(dst, line)
		d.DecompressionCycles = winner.Cost().DecompressionCycles
		d.CodecEnergyPJ += winner.Cost().DecompressionEnergyPJ()
	}

	a.phasePos++
	if a.phasePos >= a.cfg.SampleCount {
		a.closeSamplingPhase()
	}
	return d
}

// closeSamplingPhase tallies the outcome votes (Sec. V: the codec that wins
// the most samples is selected; cumulative penalty breaks ties) and enters
// the running phase.
func (a *Adaptive) closeSamplingPhase() {
	best := 0
	for i := 1; i < len(a.votes); i++ {
		if a.votes[i] > a.votes[best] ||
			(a.votes[i] == a.votes[best] && a.votePen[i] < a.votePen[best]) {
			best = i
		}
	}
	if a.degradePending {
		// Graceful degradation: repeated integrity failures overrule the
		// votes and force bypass for the upcoming running phase. Sampling
		// resumes normally afterwards.
		best = len(a.cfg.Candidates)
		a.degradePending = false
	}
	a.selected = best
	if best == len(a.cfg.Candidates) {
		a.selections = append(a.selections, comp.None)
	} else {
		a.selections = append(a.selections, a.cfg.Candidates[best].Algorithm())
	}
	a.sampling = false
	a.phasePos = 0
	for i := range a.votes {
		a.votes[i] = 0
		a.votePen[i] = 0
	}
	if a.hook != nil {
		a.hook(false, a.selections[len(a.selections)-1])
	}
}

func (a *Adaptive) processRunning(dst, line []byte) Decision {
	var d Decision
	if a.selected == len(a.cfg.Candidates) {
		// Bypass: the compression circuitry is off for this phase.
		d = Decision{Alg: comp.None, Enc: rawLine(dst, line)}
	} else {
		d = encode(a.cfg.Candidates[a.selected], dst, line)
	}
	a.phasePos++
	if a.phasePos >= a.cfg.RunLength {
		a.sampling = true
		a.phasePos = 0
		if a.hook != nil {
			a.hook(true, comp.None)
		}
	}
	return d
}

// RegisterMetrics exposes the controller's counters under prefix
// ("ctrl2/transfers", "ctrl2/sampling_rounds", ...), plus the λ
// recalibration count in dynamic-λ mode. The closures read the same fields
// the accessors above read, so snapshot values always equal the
// hand-queried ones.
func (a *Adaptive) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.CounterFunc(prefix+"/transfers", func() uint64 { return a.processed })
	reg.CounterFunc(prefix+"/sampling_rounds", func() uint64 {
		return uint64(len(a.selections))
	})
	reg.CounterFunc(prefix+"/bypass_rounds", func() uint64 {
		n := uint64(0)
		for _, alg := range a.selections {
			if alg == comp.None {
				n++
			}
		}
		return n
	})
	reg.GaugeFunc(prefix+"/lambda", func() float64 { return a.cfg.Lambda })
	if a.dynamic() {
		reg.CounterFunc(prefix+"/recalibrations", func() uint64 {
			// lambdaHist starts with the initial λ; only later entries are
			// recalibrations.
			return uint64(len(a.dyn.lambdaHist) - 1)
		})
	}
}

// RegisterIntegrityMetrics exposes the degradation counter under prefix. It
// is split from RegisterMetrics because registered paths shape snapshot
// bytes: the path exists only when the fault layer is enabled, keeping
// fault-free snapshots byte-identical to pre-guard builds.
func (a *Adaptive) RegisterIntegrityMetrics(reg *metrics.Registry, prefix string) {
	reg.CounterFunc(prefix+"/degraded_phases", func() uint64 { return a.degradedPhases })
}

// PolicyFactory validates id and λ once and returns a constructor that
// builds a fresh policy instance per compressing endpoint. Splitting
// validation from construction lets callers surface a configuration error
// where it can propagate, instead of panicking inside a
// platform.Config.NewPolicy closure that has no error path.
func PolicyFactory(id PolicyID, lambda float64) (func() Policy, error) {
	if err := ValidateLambda(lambda); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	switch id {
	case PolicyNone:
		return func() Policy { return Uncompressed{} }, nil
	case PolicyFPC:
		return func() Policy { return NewStatic(comp.FPC) }, nil
	case PolicyBDI:
		return func() Policy { return NewStatic(comp.BDI) }, nil
	case PolicyCPackZ:
		return func() Policy { return NewStatic(comp.CPackZ) }, nil
	case PolicyAdaptive:
		return func() Policy { return NewAdaptive(Config{Lambda: lambda}) }, nil
	case PolicyDynamic:
		return func() Policy { return NewDynamicAdaptive(DynamicConfig{}) }, nil
	case PolicyAdaptiveGlobal:
		// Global codec selection: the factory closure captures one shared
		// controller, so every endpoint it is handed to observes and obeys
		// the same selection state, in the order the engine executes the
		// endpoints' partitions.
		shared := NewAdaptive(Config{Lambda: lambda})
		return func() Policy { return shared }, nil
	default:
		return nil, fmt.Errorf("core: invalid policy %v", id)
	}
}
