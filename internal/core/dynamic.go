package core

import "math"

// This file implements the extension the paper leaves on the table in
// Sec. V: "We select the lambda value statically ... thereby avoiding the
// additional complexity of dynamic selection." NewDynamicAdaptive builds an
// adaptive controller in dynamic-λ mode, which supplies that selection.
//
// Eq. (1)'s λ is an exchange rate between codec cycles and payload bits: if
// codec latency is fully exposed, one cycle costs the fabric's full
// bandwidth (160 bits at 20 B/cycle); if the link is congested, latency
// hides behind queueing and compression ratio is all that matters. The
// controller therefore observes its RDMA engine's output-queue depth — a
// purely local congestion signal — and recomputes λ at every sampling
// phase:
//
//	λ = λmax / (1 + k·avgQueueDepth)
//
// deep queues → λ→0 (chase ratio), idle link → λ→λmax (chase latency).

// CongestionObserver is implemented by policies that want a congestion
// signal from the transport. The RDMA engine calls it before each transfer
// with the number of messages waiting in its fabric output queue.
type CongestionObserver interface {
	ObserveCongestion(queuedMessages int)
}

// DynamicConfig parameterizes the dynamic-λ mode of NewDynamicAdaptive.
type DynamicConfig struct {
	// MaxLambda is λ when the link is completely idle. Default 32 (the
	// largest value the paper sweeps).
	MaxLambda float64
	// Sensitivity is k in the formula above. Default 1.
	Sensitivity float64
	// SampleCount and RunLength follow the adaptive defaults.
	SampleCount int
	RunLength   int
}

func (c *DynamicConfig) fillDefaults() {
	if c.MaxLambda <= 0 {
		c.MaxLambda = 32
	}
	if c.Sensitivity <= 0 {
		c.Sensitivity = 1
	}
	if c.SampleCount <= 0 {
		c.SampleCount = DefaultSampleCount
	}
	if c.RunLength <= 0 {
		c.RunLength = DefaultRunLength
	}
}

// dynamicLambda is the dynamic-λ state of an adaptive controller. Its zero
// value (period 0) is the paper's fixed λ.
type dynamicLambda struct {
	maxLambda   float64
	sensitivity float64
	// period is the sampling-plus-running phase length in transfers; λ is
	// recalibrated at the boundary into each sampling phase.
	period uint64

	queueSum   float64
	queueObs   uint64
	lambdaHist []float64 // λ at start, then at each recalibration
}

// NewDynamicAdaptive builds an adaptive controller whose λ follows link
// congestion. It starts at MaxLambda (an idle link) until it has observed
// a phase of traffic.
func NewDynamicAdaptive(cfg DynamicConfig) *Adaptive {
	cfg.fillDefaults()
	a := NewAdaptive(Config{
		Lambda:      cfg.MaxLambda,
		SampleCount: cfg.SampleCount,
		RunLength:   cfg.RunLength,
	})
	a.dyn = dynamicLambda{
		maxLambda:   cfg.MaxLambda,
		sensitivity: cfg.Sensitivity,
		period:      uint64(cfg.SampleCount + cfg.RunLength),
		lambdaHist:  []float64{cfg.MaxLambda},
	}
	return a
}

// dynamic reports whether the controller is in dynamic-λ mode.
func (a *Adaptive) dynamic() bool { return a.dyn.period > 0 }

// ObserveCongestion implements CongestionObserver. It does nothing when λ
// is fixed.
func (a *Adaptive) ObserveCongestion(queued int) {
	if !a.dynamic() {
		return
	}
	a.dyn.queueSum += float64(queued)
	a.dyn.queueObs++
}

// Lambda returns the λ currently in force.
func (a *Adaptive) Lambda() float64 { return a.cfg.Lambda }

// LambdaHistory returns the initial λ and then λ at each completed
// recalibration, oldest first. It is empty when λ is fixed.
func (a *Adaptive) LambdaHistory() []float64 {
	return append([]float64(nil), a.dyn.lambdaHist...)
}

// recalibrate sets λ from the mean queue depth observed since the last
// recalibration.
func (a *Adaptive) recalibrate() {
	d := &a.dyn
	avg := 0.0
	if d.queueObs > 0 {
		avg = d.queueSum / float64(d.queueObs)
	}
	lambda := d.maxLambda / (1 + d.sensitivity*avg)
	if math.IsNaN(lambda) || lambda < 0 {
		lambda = 0
	}
	a.cfg.Lambda = lambda
	d.lambdaHist = append(d.lambdaHist, lambda)
	d.queueSum, d.queueObs = 0, 0
}
