package rdma

import (
	"fmt"

	"mgpucompress/internal/comp"
	"mgpucompress/internal/core"
	"mgpucompress/internal/mem"
	"mgpucompress/internal/metrics"
	"mgpucompress/internal/sim"
	"mgpucompress/internal/stats"
	"mgpucompress/internal/trace"
)

// Recorder observes traffic at the compression points. The experiment
// runner implements it to build Tables V/VI and Figures 1/5/6/7.
type Recorder interface {
	// RemoteRead is called when a read request leaves gpu for a remote
	// owner.
	RemoteRead(gpu int)
	// RemoteWrite is called when a write request leaves gpu.
	RemoteWrite(gpu int)
	// Payload is called for every payload-bearing transfer entering the
	// fabric, with the original bytes and the policy's decision.
	Payload(line []byte, d core.Decision)
	// Header is called with the header bytes of every wire message.
	Header(bytes int)
}

// NopRecorder discards all observations.
type NopRecorder struct{}

// RemoteRead implements Recorder.
func (NopRecorder) RemoteRead(int) {}

// RemoteWrite implements Recorder.
func (NopRecorder) RemoteWrite(int) {}

// Payload implements Recorder.
func (NopRecorder) Payload([]byte, core.Decision) {}

// Header implements Recorder.
func (NopRecorder) Header(int) {}

// Engine is the per-GPU RDMA engine. It faces three ways:
//
//   - ToL1 receives remote-destined mem.ReadReq/mem.WriteReq from the GPU's
//     L1 caches and returns their responses;
//   - ToFabric is plugged into the inter-GPU bus;
//   - ToL2 issues incoming remote requests into the GPU's own L2 banks.
//
// Outgoing payloads are compressed by the policy; incoming payloads are
// decompressed (with the codec's latency) unless Comp Alg is 0.
type Engine struct {
	sim.ComponentBase
	part   *sim.Partition
	ticker *sim.Ticker
	msgs   *mem.Pool

	GPU    int
	Policy core.Policy
	Rec    Recorder

	// Guard, when non-nil, enables the reliability protocol layered over
	// the Fig. 4 wire messages: CRC32C trailers on payload-bearing
	// messages, NACKs on CRC failure, and bounded retransmission with
	// exponential backoff driven by per-request timeouts. It exists to
	// recover from injected fabric faults (internal/fault); with no guard
	// the engine behaves exactly as before — any loss or corruption is a
	// hard error.
	Guard *GuardConfig
	// Spans, when non-nil alongside Guard, records every retransmission as
	// a trace span on this engine's track.
	Spans *trace.Recorder

	ToL1     *sim.Port
	ToFabric *sim.Port
	ToL2     *sim.Port

	// OwnerOf maps an address to its owning GPU.
	OwnerOf func(addr uint64) int
	// RemotePort maps a GPU ID to its RDMA fabric port.
	RemotePort func(gpu int) *sim.Port
	// L2Router maps a local address to the L2 bank port serving it.
	L2Router func(addr uint64) *sim.Port

	// outQueue holds wire messages that did not fit in the fabric's 4 KB
	// per-endpoint output buffer. The fabric enforces the paper's buffer
	// bound; this queue models the engine's internal pipeline registers
	// upstream of it and is drained strictly in order.
	outQueue sim.FIFO[sim.Msg]

	// decoding parks the pending reads whose responses are decompressing;
	// the decompression record carries the slot.
	decoding sim.Slab[pendingRead]

	// request tracking, by value: a remote request costs one allocation,
	// its wire message
	pendingReads  map[uint64]pendingRead  // wire ReadReq ID -> original local request
	pendingWrites map[uint64]pendingWrite // wire WriteReq ID -> original
	// incoming remote requests forwarded into local L2
	serviceReads  map[uint64]*ReadReq  // local L2 ReadReq ID -> wire request
	serviceWrites map[uint64]*WriteReq // local L2 WriteReq ID -> wire request

	// Stats
	ReadsSent    uint64
	WritesSent   uint64
	ReadsServed  uint64
	WritesServed uint64
	// ReadLatency records, per completed remote read, the cycles from the
	// request leaving this engine to the decompressed data reaching the
	// requesting L1 — the end-to-end remote access latency.
	ReadLatency stats.Histogram

	// Guard stats (all zero while Guard is nil).
	Retries       uint64 // retransmissions (timeout- and NACK-triggered)
	CRCErrors     uint64 // incoming payloads that failed the CRC32C check
	NACKsSent     uint64 // NACKs emitted for rejected payloads
	StaleDrops    uint64 // duplicate/late responses dropped after completion
	TimeoutsFired uint64 // retransmissions triggered by timeout (subset of Retries)
}

// GuardConfig parameterizes the reliability protocol.
type GuardConfig struct {
	// TimeoutCycles is the base retransmit timeout; attempt n waits
	// TimeoutCycles<<(n-1).
	TimeoutCycles sim.Time
	// MaxAttempts bounds transmissions per request, the initial send
	// included; exhausting it is a hard simulation error, never silent
	// data loss.
	MaxAttempts int
}

// origin is what the engine keeps of a local request it has retrieved and
// released: the fields its response needs.
type origin struct {
	src  *sim.Port
	id   uint64
	addr uint64
}

type pendingRead struct {
	req      origin
	issued   sim.Time
	wire     *ReadReq
	attempts int
}

type pendingWrite struct {
	req      origin
	wire     *WriteReq
	attempts int
}

// RegisterMetrics exposes the engine's counters under prefix (e.g.
// "gpu2/rdma", "host/rdma"), plus the output-queue depth and the remote
// read-latency distribution.
func (e *Engine) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.CounterFunc(prefix+"/reads_sent", func() uint64 { return e.ReadsSent })
	reg.CounterFunc(prefix+"/writes_sent", func() uint64 { return e.WritesSent })
	reg.CounterFunc(prefix+"/reads_served", func() uint64 { return e.ReadsServed })
	reg.CounterFunc(prefix+"/writes_served", func() uint64 { return e.WritesServed })
	reg.GaugeFunc(prefix+"/queue_depth", func() float64 { return float64(e.outQueue.Len()) })
	reg.DistributionFunc(prefix+"/read_latency", func() metrics.DistValue {
		return metrics.DistValue{
			Count: uint64(e.ReadLatency.Count()),
			Sum:   e.ReadLatency.Sum(),
			Min:   e.ReadLatency.Min(),
			Max:   e.ReadLatency.Max(),
		}
	})
}

// RegisterGuardMetrics exposes the reliability-protocol counters under
// prefix. It is a separate registration from RegisterMetrics on purpose:
// snapshot bytes include every registered path, so the guard paths must
// only exist when the fault layer is enabled, keeping fault-free snapshots
// byte-identical to builds predating the guard.
func (e *Engine) RegisterGuardMetrics(reg *metrics.Registry, prefix string) {
	reg.CounterFunc(prefix+"/retries", func() uint64 { return e.Retries })
	reg.CounterFunc(prefix+"/crc_errors", func() uint64 { return e.CRCErrors })
	reg.CounterFunc(prefix+"/nacks", func() uint64 { return e.NACKsSent })
	reg.CounterFunc(prefix+"/stale_drops", func() uint64 { return e.StaleDrops })
	reg.CounterFunc(prefix+"/timeouts", func() uint64 { return e.TimeoutsFired })
}

// New creates an RDMA engine for the given GPU index.
func New(name string, part *sim.Partition, gpu int, policy core.Policy, rec Recorder) *Engine {
	if rec == nil {
		rec = NopRecorder{}
	}
	e := &Engine{
		ComponentBase: sim.NewComponentBase(name),
		part:          part,
		msgs:          mem.PoolOf(part),
		GPU:           gpu,
		Policy:        policy,
		Rec:           rec,
		pendingReads:  make(map[uint64]pendingRead),
		pendingWrites: make(map[uint64]pendingWrite),
		serviceReads:  make(map[uint64]*ReadReq),
		serviceWrites: make(map[uint64]*WriteReq),
	}
	e.ToL1 = sim.NewPort(e, name+".ToL1", 8*1024)
	e.ToFabric = sim.NewPort(e, name+".ToFabric", 4*1024) // paper: 4 KB input buffer
	e.ToL2 = sim.NewPort(e, name+".ToL2", 8*1024)
	e.ticker = sim.NewTicker(part, e)
	return e
}

// NotifyRecv implements sim.Component.
func (e *Engine) NotifyRecv(now sim.Time, _ *sim.Port) { e.ticker.TickNow(now) }

// NotifyPortFree implements sim.Component.
func (e *Engine) NotifyPortFree(now sim.Time, _ *sim.Port) { e.ticker.TickNow(now) }

// Handle implements sim.Handler: ticks move messages between the ports.
func (e *Engine) Handle(ev *sim.Event) error { return e.tick(ev.Time()) }

// delayedSend enqueues the record's wire message for the fabric once the
// compression latency has elapsed.
type delayedSend struct{ e *Engine }

func (r delayedSend) Handle(ev *sim.Event) error {
	r.e.outQueue.Push(ev.Msg())
	r.e.drainOutQueue(ev.Time())
	return nil
}

// decompressed finishes decompression of the record's incoming payload: a
// *WriteReq is forwarded into the local L2, and a *DataReady answers the
// pending read parked in slot Arg of the decoding table.
type decompressed struct{ e *Engine }

func (r decompressed) Handle(ev *sim.Event) error {
	switch wire := ev.Msg().(type) {
	case *WriteReq:
		return r.e.deliverWrite(ev.Time(), wire)
	case *DataReady:
		return r.e.deliverRead(ev.Time(), wire, r.e.decoding.Take(ev.Arg()))
	default:
		return fmt.Errorf("%s: unexpected decompressed message %T", r.e.Name(), wire)
	}
}

// retryTimeout fires when the guarded request whose wire message the record
// carries has waited long enough for its response. The attempt number in
// Arg pins the timeout to one transmission: a retransmission in the
// meantime (e.g. NACK-triggered) bumps the pending entry's attempt count,
// turning the old timeout into a no-op.
type retryTimeout struct{ e *Engine }

func (r retryTimeout) Handle(ev *sim.Event) error {
	return r.e.handleTimeout(ev.Time(), ev.Msg(), ev.Arg())
}

func (e *Engine) tick(now sim.Time) error {
	e.drainOutQueue(now)
	for i := 0; i < 8; i++ {
		progress := false
		if msg := e.ToL1.Retrieve(now); msg != nil {
			if err := e.handleLocal(now, msg); err != nil {
				return err
			}
			progress = true
		}
		if msg := e.ToFabric.Retrieve(now); msg != nil {
			if err := e.handleWire(now, msg); err != nil {
				return err
			}
			progress = true
		}
		if msg := e.ToL2.Retrieve(now); msg != nil {
			if err := e.handleL2Response(now, msg); err != nil {
				return err
			}
			progress = true
		}
		if !progress {
			break
		}
	}
	if e.ToL1.Buffered() > 0 || e.ToFabric.Buffered() > 0 || e.ToL2.Buffered() > 0 {
		e.ticker.TickLater(now)
	}
	return nil
}

func (e *Engine) drainOutQueue(now sim.Time) {
	for e.outQueue.Len() > 0 {
		if !e.ToFabric.Send(now, e.outQueue.Peek()) {
			return // fabric output buffer full; retry on NotifyPortFree
		}
		e.outQueue.Pop()
	}
}

// handleLocal processes a request from this GPU's L1s destined for a remote
// GPU, and releases it.
func (e *Engine) handleLocal(now sim.Time, msg sim.Msg) error {
	switch req := msg.(type) {
	case *mem.ReadReq:
		owner := e.OwnerOf(req.Addr)
		wire := &ReadReq{Addr: req.Addr, N: req.N}
		wire.Src, wire.Dst = e.ToFabric, e.RemotePort(owner)
		wire.Bytes = ReadReqHeaderBytes
		e.part.AssignMsgID(wire)
		e.pendingReads[wire.ID] = pendingRead{req: origin{req.Src, req.ID, req.Addr}, issued: now, wire: wire, attempts: 1}
		e.msgs.Release(req)
		e.ReadsSent++
		e.Rec.RemoteRead(e.GPU)
		e.Rec.Header(ReadReqHeaderBytes)
		e.outQueue.Push(wire)
		e.drainOutQueue(now)
		e.scheduleTimeout(now, wire, 1)
		return nil
	case *mem.WriteReq:
		owner := e.OwnerOf(req.Addr)
		payload, d := e.compress(req.Data)
		wire := &WriteReq{Addr: req.Addr, Payload: payload}
		wire.Src, wire.Dst = e.ToFabric, e.RemotePort(owner)
		wire.Bytes = WriteReqHeaderBytes + payload.WireBytes()
		if e.Guard != nil {
			wire.Payload.CRC = PayloadCRC(wire.Payload)
			wire.Bytes += CRCTrailerBytes
		}
		e.part.AssignMsgID(wire)
		e.pendingWrites[wire.ID] = pendingWrite{req: origin{req.Src, req.ID, req.Addr}, wire: wire, attempts: 1}
		e.msgs.Release(req)
		e.WritesSent++
		e.Rec.RemoteWrite(e.GPU)
		e.Rec.Header(WriteReqHeaderBytes)
		e.scheduleSend(now, wire, d.CompressionCycles)
		e.scheduleTimeout(now, wire, 1)
		return nil
	default:
		return fmt.Errorf("%s: unexpected local message %T", e.Name(), msg)
	}
}

// compress runs the policy over a payload. Payloads that are not a whole
// cache line bypass the codecs (they cannot be encoded by the line-based
// algorithms) and ship raw. The payload never aliases data, which belongs
// to a message released once this returns.
func (e *Engine) compress(data []byte) (Payload, core.Decision) {
	if len(data) != comp.LineSize || e.Policy == nil {
		d := core.Decision{Alg: comp.None}
		p := Payload{Alg: comp.None, Raw: append([]byte(nil), data...), RawLen: len(data)}
		if e.Policy != nil {
			// Still record the transfer so traffic accounting is complete.
			e.Rec.Payload(data, core.Decision{Alg: comp.None, Enc: comp.Encoded{
				Alg: comp.None, Bits: len(data) * 8, Data: data, Uncompressed: true,
			}})
		}
		return p, d
	}
	if obs, ok := e.Policy.(core.CongestionObserver); ok {
		// Feed the dynamic-λ extension its local congestion signal: the
		// depth of this engine's fabric output queue.
		obs.ObserveCongestion(e.outQueue.Len())
	}
	d := e.Policy.Process(data)
	e.Rec.Payload(data, d)
	if d.Alg == comp.None {
		return Payload{Alg: comp.None, Raw: d.Enc.Data, RawLen: len(data)}, d
	}
	return Payload{Alg: d.Alg, Enc: d.Enc, RawLen: len(data)}, d
}

// scheduleSend queues the wire message after the compression latency.
func (e *Engine) scheduleSend(now sim.Time, msg sim.Msg, compressionCycles int) {
	if compressionCycles <= 0 {
		e.outQueue.Push(msg)
		e.drainOutQueue(now)
		return
	}
	e.part.Schedule(now+sim.Time(compressionCycles), delayedSend{e}, msg, 0)
}

// handleWire processes a message arriving from the fabric.
func (e *Engine) handleWire(now sim.Time, msg sim.Msg) error {
	switch wire := msg.(type) {
	case *ReadReq:
		// A remote GPU wants our data: forward into the local L2.
		e.ReadsServed++
		local := e.msgs.ReadReq(e.ToL2, e.L2Router(wire.Addr), wire.Addr, wire.N)
		e.part.AssignMsgID(local)
		e.serviceReads[local.ID] = wire
		if !e.ToL2.Send(now, local) {
			return fmt.Errorf("%s: L2 rejected forwarded read", e.Name())
		}
		return nil
	case *WriteReq:
		if e.Guard != nil && PayloadCRC(wire.Payload) != wire.Payload.CRC {
			// Reject the corrupt payload; the writer retransmits on NACK
			// (or, failing that, on timeout) and attributes the failure to
			// the codec named in the header.
			e.CRCErrors++
			e.sendNACK(now, wire.Meta().Src, wire.ID, wire.Payload.Alg)
			return nil
		}
		// Decompress (if needed), then forward the write into local L2.
		e.WritesServed++
		if cycles := decompressionCycles(wire.Payload.Alg); cycles > 0 {
			e.part.Schedule(now+sim.Time(cycles), decompressed{e}, wire, 0)
			return nil
		}
		return e.deliverWrite(now, wire)
	case *DataReady:
		// Response to one of our outgoing reads.
		pr, ok := e.pendingReads[wire.RspTo]
		if !ok {
			if e.Guard != nil {
				// Duplicate response: a timeout retransmitted the request
				// and both replies arrived. The first one won.
				e.StaleDrops++
				return nil
			}
			return fmt.Errorf("%s: DataReady for unknown request %d", e.Name(), wire.RspTo)
		}
		if e.Guard != nil && PayloadCRC(wire.Payload) != wire.Payload.CRC {
			// Corrupt response: discard it, tell the responder (which
			// compressed the payload) so it can attribute the failure, and
			// retransmit our request.
			e.CRCErrors++
			e.sendNACK(now, wire.Meta().Src, wire.RspTo, wire.Payload.Alg)
			return e.retransmitRead(now, wire.RspTo)
		}
		delete(e.pendingReads, wire.RspTo)
		if cycles := decompressionCycles(wire.Payload.Alg); cycles > 0 {
			e.part.Schedule(now+sim.Time(cycles), decompressed{e}, wire, e.decoding.Put(pr))
			return nil
		}
		return e.deliverRead(now, wire, pr)
	case *WriteACK:
		pw, ok := e.pendingWrites[wire.RspTo]
		if !ok {
			if e.Guard != nil {
				e.StaleDrops++
				return nil
			}
			return fmt.Errorf("%s: WriteACK for unknown request %d", e.Name(), wire.RspTo)
		}
		delete(e.pendingWrites, wire.RspTo)
		if e.Guard != nil && pw.wire.Payload.Alg != comp.None {
			// A compressed write completed cleanly: reset the controller's
			// consecutive-failure count.
			e.observeIntegrity(true)
		}
		orig := pw.req
		ack := e.msgs.WriteACK(e.ToL1, orig.src, orig.id, orig.addr)
		e.part.AssignMsgID(ack)
		if !e.ToL1.Send(now, ack) {
			return fmt.Errorf("%s: L1 rejected ack", e.Name())
		}
		return nil
	case *NACK:
		if e.Guard == nil {
			return fmt.Errorf("%s: unexpected NACK without guard", e.Name())
		}
		if wire.Alg != comp.None {
			// The rejected payload was compressed by this engine's policy:
			// a codec-attributed integrity failure.
			e.observeIntegrity(false)
		}
		if _, ok := e.pendingWrites[wire.RspTo]; ok {
			return e.retransmitWrite(now, wire.RspTo)
		}
		// Read-path NACK: informational only — the requester already
		// retransmitted its ReadReq, and this engine kept no state for the
		// rejected DataReady.
		return nil
	default:
		return fmt.Errorf("%s: unexpected wire message %T", e.Name(), msg)
	}
}

// sendNACK rejects payload RspTo back to its sender, naming the Comp Alg of
// the rejected payload for failure attribution.
func (e *Engine) sendNACK(now sim.Time, dst *sim.Port, rspTo uint64, alg comp.Algorithm) {
	n := &NACK{RspTo: rspTo, Alg: alg}
	n.Src, n.Dst = e.ToFabric, dst
	n.Bytes = NACKHeaderBytes
	e.part.AssignMsgID(n)
	e.NACKsSent++
	e.outQueue.Push(n)
	e.drainOutQueue(now)
}

// observeIntegrity feeds the policy's integrity signal (when it cares).
func (e *Engine) observeIntegrity(ok bool) {
	if obs, has := e.Policy.(core.IntegrityObserver); has {
		obs.ObserveIntegrity(ok)
	}
}

// scheduleTimeout arms the retransmit timer for transmission `attempt` of
// the guarded request wire, with exponential backoff. No-op without a
// guard.
func (e *Engine) scheduleTimeout(now sim.Time, wire sim.Msg, attempt int) {
	if e.Guard == nil {
		return
	}
	shift := attempt - 1
	if shift > 10 {
		shift = 10 // backoff cap; MaxAttempts bounds attempts anyway
	}
	e.part.Schedule(now+e.Guard.TimeoutCycles<<shift, retryTimeout{e}, wire, attempt)
}

// handleTimeout retransmits a request whose response never arrived. A stale
// timeout — the request completed, or a NACK already retransmitted it — is
// a no-op.
func (e *Engine) handleTimeout(now sim.Time, wire sim.Msg, attempt int) error {
	if e.Guard == nil {
		return nil
	}
	id := wire.Meta().ID
	if _, write := wire.(*WriteReq); write {
		pw, ok := e.pendingWrites[id]
		if !ok || pw.attempts != attempt {
			return nil
		}
		e.TimeoutsFired++
		return e.retransmitWrite(now, id)
	}
	pr, ok := e.pendingReads[id]
	if !ok || pr.attempts != attempt {
		return nil
	}
	e.TimeoutsFired++
	return e.retransmitRead(now, id)
}

// retransmitRead re-sends the wire ReadReq for a still-pending read.
// Retransmissions appear in the fabric byte counters and the guard stats,
// not in the logical traffic/* accounting: they are transport overhead, not
// new transfers.
func (e *Engine) retransmitRead(now sim.Time, id uint64) error {
	pr := e.pendingReads[id]
	if pr.attempts >= e.Guard.MaxAttempts {
		return fmt.Errorf("%s: remote read %#x: retry budget exhausted after %d attempts",
			e.Name(), pr.wire.Addr, pr.attempts)
	}
	pr.attempts++
	e.pendingReads[id] = pr
	e.Retries++
	e.recordRetrySpan(now, "retry:read", pr.wire.Addr, pr.attempts)
	e.outQueue.Push(pr.wire)
	e.drainOutQueue(now)
	e.scheduleTimeout(now, pr.wire, pr.attempts)
	return nil
}

// retransmitWrite re-sends the wire WriteReq for a still-pending write. The
// payload was already encoded and checksummed on first send, so the
// retransmission costs no additional compression latency.
func (e *Engine) retransmitWrite(now sim.Time, id uint64) error {
	pw := e.pendingWrites[id]
	if pw.attempts >= e.Guard.MaxAttempts {
		return fmt.Errorf("%s: remote write %#x: retry budget exhausted after %d attempts",
			e.Name(), pw.wire.Addr, pw.attempts)
	}
	pw.attempts++
	e.pendingWrites[id] = pw
	e.Retries++
	e.recordRetrySpan(now, "retry:write", pw.wire.Addr, pw.attempts)
	e.outQueue.Push(pw.wire)
	e.drainOutQueue(now)
	e.scheduleTimeout(now, pw.wire, pw.attempts)
	return nil
}

// recordRetrySpan marks one retransmission on the trace timeline.
func (e *Engine) recordRetrySpan(now sim.Time, name string, addr uint64, attempt int) {
	if e.Spans == nil {
		return
	}
	e.Spans.Record(trace.Span{
		Track: e.Name(), Name: fmt.Sprintf("%s @%#x #%d", name, addr, attempt),
		Cat: "fault", Start: now, End: now + 1,
	})
}

// deliverWrite forwards an incoming write into the local L2. A compressed
// payload is decoded straight into the line the request carries; a raw one
// is copied there.
func (e *Engine) deliverWrite(now sim.Time, wire *WriteReq) error {
	var local *mem.WriteReq
	if wire.Payload.Alg == comp.None {
		local = e.msgs.WriteReq(e.ToL2, e.L2Router(wire.Addr), wire.Addr, len(wire.Payload.Raw))
		copy(local.Data, wire.Payload.Raw)
	} else {
		local = e.msgs.WriteReq(e.ToL2, e.L2Router(wire.Addr), wire.Addr, comp.LineSize)
		if err := comp.DecodeInto(local.Data, wire.Payload.Enc); err != nil {
			return fmt.Errorf("%s: write payload: %w", e.Name(), err)
		}
	}
	e.part.AssignMsgID(local)
	e.serviceWrites[local.ID] = wire
	if !e.ToL2.Send(now, local) {
		return fmt.Errorf("%s: L2 rejected forwarded write", e.Name())
	}
	return nil
}

// deliverRead returns the response to the pending read pr to the requesting
// L1. A compressed payload is decoded straight into the line the response
// carries; a raw one is copied there.
func (e *Engine) deliverRead(now sim.Time, wire *DataReady, pr pendingRead) error {
	orig := pr.req
	var rsp *mem.DataReady
	if wire.Payload.Alg == comp.None {
		rsp = e.msgs.DataReady(e.ToL1, orig.src, orig.id, orig.addr, len(wire.Payload.Raw))
		copy(rsp.Data, wire.Payload.Raw)
	} else {
		rsp = e.msgs.DataReady(e.ToL1, orig.src, orig.id, orig.addr, comp.LineSize)
		if err := comp.DecodeInto(rsp.Data, wire.Payload.Enc); err != nil {
			return fmt.Errorf("%s: read payload: %w", e.Name(), err)
		}
	}
	e.ReadLatency.Add(float64(now - pr.issued))
	e.part.AssignMsgID(rsp)
	if !e.ToL1.Send(now, rsp) {
		return fmt.Errorf("%s: L1 rejected response", e.Name())
	}
	return nil
}

func decompressionCycles(alg comp.Algorithm) int {
	return comp.CostOf(alg).DecompressionCycles
}

// handleL2Response turns local L2 responses into wire responses for the
// requesting GPU, and releases them.
func (e *Engine) handleL2Response(now sim.Time, msg sim.Msg) error {
	switch rsp := msg.(type) {
	case *mem.DataReady:
		wireReq, ok := e.serviceReads[rsp.RspTo]
		if !ok {
			return fmt.Errorf("%s: L2 data for unknown request %d", e.Name(), rsp.RspTo)
		}
		delete(e.serviceReads, rsp.RspTo)
		payload, d := e.compress(rsp.Data)
		out := &DataReady{RspTo: wireReq.ID, Addr: rsp.Addr, Payload: payload}
		e.msgs.Release(rsp)
		out.Src, out.Dst = e.ToFabric, wireReq.Src
		out.Bytes = DataReadyHeaderBytes + payload.WireBytes()
		if e.Guard != nil {
			out.Payload.CRC = PayloadCRC(out.Payload)
			out.Bytes += CRCTrailerBytes
		}
		e.part.AssignMsgID(out)
		e.Rec.Header(DataReadyHeaderBytes)
		e.scheduleSend(now, out, d.CompressionCycles)
		return nil
	case *mem.WriteACK:
		wireReq, ok := e.serviceWrites[rsp.RspTo]
		if !ok {
			return fmt.Errorf("%s: L2 ack for unknown request %d", e.Name(), rsp.RspTo)
		}
		delete(e.serviceWrites, rsp.RspTo)
		e.msgs.Release(rsp)
		out := &WriteACK{RspTo: wireReq.ID}
		out.Src, out.Dst = e.ToFabric, wireReq.Src
		out.Bytes = WriteACKHeaderBytes
		e.part.AssignMsgID(out)
		e.Rec.Header(WriteACKHeaderBytes)
		e.outQueue.Push(out)
		e.drainOutQueue(now)
		return nil
	default:
		return fmt.Errorf("%s: unexpected L2 message %T", e.Name(), msg)
	}
}

// CheckQuiescent reports an error if the engine still tracks a remote
// request, a request it serves, or a response being decompressed.
func (e *Engine) CheckQuiescent() error {
	n := len(e.pendingReads) + len(e.pendingWrites) + len(e.serviceReads) + len(e.serviceWrites) + e.decoding.Len()
	if n != 0 {
		return fmt.Errorf("%s: %d reads and %d writes pending, %d reads and %d writes in service, %d responses decoding",
			e.Name(), len(e.pendingReads), len(e.pendingWrites), len(e.serviceReads), len(e.serviceWrites), e.decoding.Len())
	}
	return nil
}
