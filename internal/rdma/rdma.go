package rdma

import (
	"errors"
	"fmt"

	"mgpucompress/internal/comp"
	"mgpucompress/internal/core"
	"mgpucompress/internal/mem"
	"mgpucompress/internal/metrics"
	"mgpucompress/internal/sim"
	"mgpucompress/internal/stats"
	"mgpucompress/internal/trace"
)

// Recorder observes the payloads entering the fabric. The engine keeps its
// own traffic ledger; a recorder only observes, for measurements that need
// the bytes themselves (the runner's Table V/VI characterization and the
// Fig. 1 series).
type Recorder interface {
	// Payload is called for every payload-bearing transfer entering the
	// fabric, with the original bytes and the policy's decision. Both are
	// borrowed: d.Enc.Data lives in a pooled wire message, so a recorder
	// that keeps the bytes copies them.
	Payload(line []byte, d core.Decision)
}

// NopRecorder discards all observations.
type NopRecorder struct{}

// Payload implements Recorder.
func (NopRecorder) Payload([]byte, core.Decision) {}

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
	// wires is the pool of the wire messages this engine sends.
	wires wirePool

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

	// pending tracks this engine's remote requests by wire request ID, by
	// value.
	pending map[uint64]request
	// decoding parks, while an incoming payload decompresses, the answered
	// read (for its latency) or the requester of the served write; the
	// decompression record carries the slot.
	decoding sim.Slab[request]
	// serving maps the local L2 request ID of each incoming remote request
	// to its requester's fabric port (Src) and wire request ID (ID).
	serving map[uint64]mem.ReplyTo

	// Traffic is the ledger of what this engine puts on the fabric: remote
	// reads and writes issued, the header bytes of every request and
	// response it sends, and every payload line with its on-wire size.
	// Retransmissions and NACKs are transport overhead and stay out of it
	// (the fabric and guard counters see them). CodecEnergyPJ is the codec
	// energy of the policy's decisions on those payloads.
	Traffic       stats.Traffic
	CodecEnergyPJ float64

	// Stats
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

// request is a remote request in flight: the local request it answers,
// when it left, how many times it has been sent, when its live timeout is
// due (guard only), and the retained copy of its wire message, whose type
// (*ReadReq or *WriteReq) is the request's kind. The retained copy never
// goes on the fabric: each transmission is a copy of it.
type request struct {
	req      mem.ReplyTo
	issued   sim.Time
	attempts int
	due      sim.Time
	wire     wireMsg
}

// RegisterMetrics exposes the engine's counters under prefix (e.g.
// "gpu2/rdma", "host/rdma"), plus the output-queue depth and the remote
// read-latency distribution.
func (e *Engine) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.CounterFunc(prefix+"/reads_sent", func() uint64 { return e.Traffic.RemoteReads })
	reg.CounterFunc(prefix+"/writes_sent", func() uint64 { return e.Traffic.RemoteWrites })
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

// New creates an RDMA engine on part. A nil rec observes nothing.
func New(name string, part *sim.Partition, policy core.Policy, rec Recorder) *Engine {
	if rec == nil {
		rec = NopRecorder{}
	}
	e := &Engine{
		ComponentBase: sim.NewComponentBase(name),
		part:          part,
		msgs:          mem.PoolOf(part),
		Policy:        policy,
		Rec:           rec,
		pending:       make(map[uint64]request),
		serving:       make(map[uint64]mem.ReplyTo),
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

// decompressed delivers the record's decoded line once the decompression
// latency has elapsed: a *mem.WriteReq into the local L2, a *mem.DataReady
// to the requesting L1, for the request parked in slot Arg of the decoding
// table.
type decompressed struct{ e *Engine }

func (r decompressed) Handle(ev *sim.Event) error {
	req := r.e.decoding.Take(ev.Arg())
	switch local := ev.Msg().(type) {
	case *mem.WriteReq:
		return r.e.deliverWrite(ev.Time(), local, req.req)
	case *mem.DataReady:
		return r.e.deliverRead(ev.Time(), local, req)
	default:
		return fmt.Errorf("%s: unexpected decompressed message %T", r.e.Name(), local)
	}
}

// retryTimeout fires when the guarded request whose wire request ID is Arg
// has waited long enough for its response. The pending entry remembers when
// its live timeout is due; backoff makes those times strictly increase per
// request, so a timeout of an earlier transmission (one superseded by, for
// example, a NACK-triggered retry) finds another due time and is a no-op.
type retryTimeout struct{ e *Engine }

func (r retryTimeout) Handle(ev *sim.Event) error {
	return r.e.handleTimeout(ev.Time(), uint64(ev.Arg()))
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
			msg.(wireMsg).Release()
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

// handleLocal turns a request from this GPU's L1s, destined for a remote
// GPU, into its wire request, and releases it. The pending entry retains
// the wire request; its first transmission is a copy.
func (e *Engine) handleLocal(now sim.Time, msg sim.Msg) error {
	var wire wireMsg
	var to mem.ReplyTo
	cycles := 0
	switch req := msg.(type) {
	case *mem.ReadReq:
		w := e.wires.readReq()
		w.Addr, w.N = req.Addr, req.N
		w.Bytes = mem.ReadReqHeaderBytes
		wire, to = w, req.ReplyTo()
		e.Traffic.RemoteReads++
		e.Traffic.HeaderBytes += mem.ReadReqHeaderBytes
	case *mem.WriteReq:
		w := e.wires.writeReq()
		w.Addr = req.Addr
		d := e.compress(&w.Payload, w.line[:0], req.Data)
		e.seal(&w.MsgMeta, &w.Payload, mem.WriteReqHeaderBytes)
		wire, to, cycles = w, req.ReplyTo(), d.CompressionCycles
		e.Traffic.RemoteWrites++
		e.Traffic.HeaderBytes += mem.WriteReqHeaderBytes
	default:
		return fmt.Errorf("%s: unexpected local message %T", e.Name(), msg)
	}
	m := wire.Meta()
	m.Src, m.Dst = e.ToFabric, e.RemotePort(e.OwnerOf(to.Addr))
	e.part.AssignMsgID(wire)
	r := request{req: to, issued: now, attempts: 1, wire: wire}
	e.msgs.Release(msg)
	e.scheduleSend(now, e.wires.transmission(wire), cycles)
	r.due = e.scheduleTimeout(now, m.ID, 1)
	e.pending[m.ID] = r
	return nil
}

// seal charges a payload-bearing wire message its header and payload bytes
// and, under the guard, checksums the payload and charges the CRC trailer.
func (e *Engine) seal(m *sim.MsgMeta, p *Payload, headerBytes int) {
	m.Bytes = headerBytes + p.WireBytes()
	if e.Guard != nil {
		p.CRC = PayloadCRC(*p)
		m.Bytes += CRCTrailerBytes
	}
}

// compress runs the policy over data into p, encoding it into dst, which is
// line[:0] of the wire message that carries p. Payloads that are not a
// whole cache line bypass the codecs (they cannot be encoded by the
// line-based algorithms) and ship raw; one longer than a line outgrows dst
// and is the only payload that allocates. The payload never aliases data,
// which belongs to a message released once this returns.
func (e *Engine) compress(p *Payload, dst, data []byte) core.Decision {
	policy := e.Policy
	if policy == nil || len(data) != comp.LineSize {
		policy = core.Uncompressed{}
	} else if obs, ok := policy.(core.CongestionObserver); ok {
		// Feed the dynamic-λ extension its local congestion signal: the
		// depth of this engine's fabric output queue.
		obs.ObserveCongestion(e.outQueue.Len())
	}
	d := policy.Process(dst, data)
	// Every transfer is counted, raw ones included, so traffic accounting
	// is complete.
	e.Traffic.AddLine(data, d.WireBytes(), d.Alg != comp.None)
	e.CodecEnergyPJ += d.CodecEnergyPJ
	e.Rec.Payload(data, d)
	*p = Payload{Alg: d.Alg, Enc: d.Enc, RawLen: len(data)}
	return d
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

// handleWire processes a message arriving from the fabric. It keeps
// nothing of the message once it returns (an incoming payload is decoded
// into a memory message right away) and does not release it: tick does.
func (e *Engine) handleWire(now sim.Time, msg sim.Msg) error {
	switch wire := msg.(type) {
	case *ReadReq:
		// A remote GPU wants our data: forward into the local L2.
		e.ReadsServed++
		local := e.msgs.ReadReq(e.ToL2, e.L2Router(wire.Addr), wire.Addr, wire.N)
		e.part.AssignMsgID(local)
		e.serving[local.ID] = mem.ReplyTo{Src: wire.Src, ID: wire.ID}
		if !e.ToL2.Send(now, local) {
			return fmt.Errorf("%s: L2 rejected forwarded read", e.Name())
		}
		return nil
	case *WriteReq:
		if e.rejects(now, wire.Src, wire.ID, &wire.Payload) {
			// The writer retransmits on the NACK (or, failing that, on
			// timeout).
			return nil
		}
		// Decode the line now and forward the write into local L2 once the
		// decompression latency (if any) has elapsed.
		e.WritesServed++
		local := e.msgs.WriteReq(e.ToL2, e.L2Router(wire.Addr), wire.Addr, wire.Payload.RawLen)
		if err := unpack(local.Data, wire.Payload); err != nil {
			return fmt.Errorf("%s: write payload: %w", e.Name(), err)
		}
		to := mem.ReplyTo{Src: wire.Src, ID: wire.ID}
		if cycles := decompressionCycles(wire.Payload.Alg); cycles > 0 {
			e.part.Schedule(now+sim.Time(cycles), decompressed{e}, local, e.decoding.Put(request{req: to}))
			return nil
		}
		return e.deliverWrite(now, local, to)
	case *DataReady:
		// Response to one of our outgoing reads.
		r, ok, err := e.answered(wire, wire.RspTo)
		if !ok {
			return err
		}
		if e.rejects(now, wire.Src, wire.RspTo, &wire.Payload) {
			// Corrupt response: discard it and retransmit our request.
			return e.retransmit(now, wire.RspTo)
		}
		e.complete(wire.RspTo, &r)
		rsp := e.msgs.DataReady(e.ToL1, r.req.Src, r.req.ID, r.req.Addr, wire.Payload.RawLen)
		if err := unpack(rsp.Data, wire.Payload); err != nil {
			return fmt.Errorf("%s: read payload: %w", e.Name(), err)
		}
		if cycles := decompressionCycles(wire.Payload.Alg); cycles > 0 {
			e.part.Schedule(now+sim.Time(cycles), decompressed{e}, rsp, e.decoding.Put(r))
			return nil
		}
		return e.deliverRead(now, rsp, r)
	case *WriteACK:
		r, ok, err := e.answered(wire, wire.RspTo)
		if !ok {
			return err
		}
		compressed := r.wire.(*WriteReq).Payload.Alg != comp.None
		e.complete(wire.RspTo, &r)
		if e.Guard != nil && compressed {
			// A compressed write completed cleanly: reset the controller's
			// consecutive-failure count.
			e.observeIntegrity(true)
		}
		ack := e.msgs.WriteACK(e.ToL1, r.req.Src, r.req.ID, r.req.Addr)
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
		if _, ok := e.pending[wire.RspTo]; ok {
			return e.retransmit(now, wire.RspTo)
		}
		// Read-path NACK: it names the requester's read, not a request of
		// ours, and is informational only — the requester already
		// retransmitted its ReadReq, and this engine kept no state for the
		// rejected DataReady.
		return nil
	default:
		return fmt.Errorf("%s: unexpected wire message %T", e.Name(), msg)
	}
}

// answered returns the pending request that the DataReady or WriteACK rsp
// answers. It reports false, with no error, for a response the guard drops
// as stale: a timeout retransmitted the request, both replies arrived and
// the first one won. An unknown request without the guard, or a response of
// the wrong kind, is an error.
func (e *Engine) answered(rsp sim.Msg, rspTo uint64) (request, bool, error) {
	r, ok := e.pending[rspTo]
	if !ok {
		if e.Guard != nil {
			e.StaleDrops++
			return r, false, nil
		}
		return r, false, fmt.Errorf("%s: %T for unknown request %d", e.Name(), rsp, rspTo)
	}
	_, read := r.wire.(*ReadReq)
	if _, data := rsp.(*DataReady); data != read {
		return r, false, fmt.Errorf("%s: %T answers %T %d", e.Name(), rsp, r.wire, rspTo)
	}
	return r, true, nil
}

// complete ends the answered request id, whose entry is r: it leaves the
// pending table and its retained wire message is released.
func (e *Engine) complete(id uint64, r *request) {
	delete(e.pending, id)
	r.wire.Release()
	r.wire = nil
}

// rejects reports whether an incoming payload fails the guard's CRC check.
// A rejected payload is counted and NACKed back to its sender under rspTo,
// naming its Comp Alg so the compressing endpoint can attribute the
// failure.
func (e *Engine) rejects(now sim.Time, src *sim.Port, rspTo uint64, p *Payload) bool {
	if e.Guard == nil || PayloadCRC(*p) == p.CRC {
		return false
	}
	e.CRCErrors++
	n := e.wires.nack()
	n.RspTo, n.Alg = rspTo, p.Alg
	n.Src, n.Dst = e.ToFabric, src
	n.Bytes = NACKHeaderBytes
	e.part.AssignMsgID(n)
	e.NACKsSent++
	e.outQueue.Push(n)
	e.drainOutQueue(now)
	return true
}

// observeIntegrity feeds the policy's integrity signal (when it cares).
func (e *Engine) observeIntegrity(ok bool) {
	if obs, has := e.Policy.(core.IntegrityObserver); has {
		obs.ObserveIntegrity(ok)
	}
}

// scheduleTimeout arms the retransmit timer for transmission `attempt` of
// the guarded request id, with exponential backoff, and returns when it is
// due. No-op without a guard.
func (e *Engine) scheduleTimeout(now sim.Time, id uint64, attempt int) sim.Time {
	if e.Guard == nil {
		return 0
	}
	shift := attempt - 1
	if shift > 10 {
		shift = 10 // backoff cap; MaxAttempts bounds attempts anyway
	}
	due := now + e.Guard.TimeoutCycles<<shift
	e.part.Schedule(due, retryTimeout{e}, nil, int(id))
	return due
}

// handleTimeout retransmits a request whose response never arrived. A stale
// timeout — the request completed, or a NACK already retransmitted it — is
// a no-op.
func (e *Engine) handleTimeout(now sim.Time, id uint64) error {
	if r, ok := e.pending[id]; !ok || r.due != now {
		return nil
	}
	e.TimeoutsFired++
	return e.retransmit(now, id)
}

// retransmit sends a new copy of the retained wire request of a
// still-pending remote request. Retransmissions appear in the fabric byte
// counters and the guard stats, not in the logical traffic/* accounting:
// they are transport overhead, not new transfers. A write's payload was
// encoded and checksummed on first send, so its retransmission costs no
// compression latency.
func (e *Engine) retransmit(now sim.Time, id uint64) error {
	r := e.pending[id]
	kind := "read"
	if _, write := r.wire.(*WriteReq); write {
		kind = "write"
	}
	if r.attempts >= e.Guard.MaxAttempts {
		return fmt.Errorf("%s: remote %s %#x: retry budget exhausted after %d attempts",
			e.Name(), kind, r.req.Addr, r.attempts)
	}
	r.attempts++
	e.Retries++
	if e.Spans != nil {
		e.Spans.Record(trace.Span{
			Track: e.Name(), Name: fmt.Sprintf("retry:%s @%#x #%d", kind, r.req.Addr, r.attempts),
			Cat: "fault", Start: now, End: now + 1,
		})
	}
	e.outQueue.Push(e.wires.transmission(r.wire))
	e.drainOutQueue(now)
	r.due = e.scheduleTimeout(now, id, r.attempts)
	e.pending[id] = r
	return nil
}

// deliverWrite forwards the decoded line of an incoming write into the
// local L2; to names the remote writer.
func (e *Engine) deliverWrite(now sim.Time, local *mem.WriteReq, to mem.ReplyTo) error {
	e.part.AssignMsgID(local)
	e.serving[local.ID] = to
	if !e.ToL2.Send(now, local) {
		return fmt.Errorf("%s: L2 rejected forwarded write", e.Name())
	}
	return nil
}

// deliverRead returns rsp, the decoded response to the answered read r, to
// the requesting L1.
func (e *Engine) deliverRead(now sim.Time, rsp *mem.DataReady, r request) error {
	e.ReadLatency.Add(float64(now - r.issued))
	e.part.AssignMsgID(rsp)
	if !e.ToL1.Send(now, rsp) {
		return fmt.Errorf("%s: L1 rejected response", e.Name())
	}
	return nil
}

// unpack writes the payload's line into dst, which holds RawLen bytes: a
// compressed payload is decoded straight into it, a raw one copied.
func unpack(dst []byte, p Payload) error {
	if p.Alg == comp.None {
		copy(dst, p.Enc.Data)
		return nil
	}
	return comp.DecodeInto(dst, p.Enc)
}

func decompressionCycles(alg comp.Algorithm) int {
	return comp.CostOf(alg).DecompressionCycles
}

// handleL2Response turns local L2 responses into wire responses for the
// requesting GPU, and releases them.
func (e *Engine) handleL2Response(now sim.Time, msg sim.Msg) error {
	switch rsp := msg.(type) {
	case *mem.DataReady:
		to, ok := e.serving[rsp.RspTo]
		if !ok {
			return fmt.Errorf("%s: L2 data for unknown request %d", e.Name(), rsp.RspTo)
		}
		delete(e.serving, rsp.RspTo)
		out := e.wires.dataReady()
		d := e.compress(&out.Payload, out.line[:0], rsp.Data)
		out.RspTo, out.Addr = to.ID, rsp.Addr
		e.msgs.Release(rsp)
		out.Src, out.Dst = e.ToFabric, to.Src
		e.seal(&out.MsgMeta, &out.Payload, mem.DataReadyHeaderBytes)
		e.part.AssignMsgID(out)
		e.Traffic.HeaderBytes += mem.DataReadyHeaderBytes
		e.scheduleSend(now, out, d.CompressionCycles)
		return nil
	case *mem.WriteACK:
		to, ok := e.serving[rsp.RspTo]
		if !ok {
			return fmt.Errorf("%s: L2 ack for unknown request %d", e.Name(), rsp.RspTo)
		}
		delete(e.serving, rsp.RspTo)
		e.msgs.Release(rsp)
		out := e.wires.writeACK()
		out.RspTo = to.ID
		out.Src, out.Dst = e.ToFabric, to.Src
		out.Bytes = mem.WriteACKHeaderBytes
		e.part.AssignMsgID(out)
		e.Traffic.HeaderBytes += mem.WriteACKHeaderBytes
		e.outQueue.Push(out)
		e.drainOutQueue(now)
		return nil
	default:
		return fmt.Errorf("%s: unexpected L2 message %T", e.Name(), msg)
	}
}

// CheckQuiescent reports an error if the engine still tracks a remote
// request, a request it serves, or a payload being decompressed, still
// parks a wire message for the fabric, or sent a wire message that was
// never released.
func (e *Engine) CheckQuiescent() error {
	var errs []error
	if n := len(e.pending) + len(e.serving) + e.decoding.Len() + e.outQueue.Len(); n != 0 {
		errs = append(errs, fmt.Errorf("%s: %d requests pending, %d in service, %d payloads decoding, %d wire messages parked",
			e.Name(), len(e.pending), len(e.serving), e.decoding.Len(), e.outQueue.Len()))
	}
	if err := e.wires.checkQuiescent(); err != nil {
		errs = append(errs, fmt.Errorf("%s wire messages: %w", e.Name(), err))
	}
	return errors.Join(errs...)
}
