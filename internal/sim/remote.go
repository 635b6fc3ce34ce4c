package sim

// Remote is a scheduling channel between two partitions, created with
// Engine.Link. Records cross it stamped with a sequence number from the
// source partition, so the destination's (time, seq) dispatch order is a
// pure function of simulation content, independent of window placement.
// Because the declared latency keeps emissions at or past the window limit,
// they never land inside a window the destination is running or has run.
type Remote struct {
	src     *Partition
	dst     *Partition
	latency Time

	// nextSend is the link's next-send bound: a promise by the owning
	// component that no event with a time below it will be scheduled on this
	// link. The window scheduler folds it into the adaptive limit, so raising
	// it widens windows beyond what the source's head event alone allows.
	nextSend Time
}

// MinLatency returns the link's declared minimum latency.
func (r *Remote) MinLatency() Time { return r.latency }

// Dst returns the destination partition.
func (r *Remote) Dst() *Partition { return r.dst }

// SetNextSend raises the link's next-send bound to t: the caller promises no
// event with a time below t will ever be scheduled on this link. The promise
// must follow from state the source component has already committed — it may
// not be invalidated by anything that could still arrive (a fabric bus that
// arbitrates nothing while a transfer occupies the wire can promise its busy
// horizon; a component that merely has an empty queue cannot, because a
// same-cycle delivery could refill it). Lowering is ignored: bounds only
// ratchet up, and Schedule panics on an emission that breaks one.
func (r *Remote) SetNextSend(t Time) {
	if t <= r.nextSend {
		return
	}
	if r.nextSend == 0 && r.src != r.dst && r.latency == r.src.minLat {
		r.src.open--
	}
	r.nextSend = t
}

// Schedule sends a record for h, carrying msg and arg, across the link to
// run at time t: the cross-partition form of Partition.Schedule. The time
// must be at least the source partition's current time plus the link
// latency — that floor is what makes the conservative window safe, so
// violating it panics. Local links (src == dst) and calls from host code
// between runs schedule on the destination like any local record.
//
// When the source is running alone in a dynamic window, each emission
// collapses the source's window limit to the earliest time the recipient's
// reaction could travel back through the link graph, so the lone partition
// never dispatches anything its own traffic might retroactively disturb.
func (r *Remote) Schedule(t Time, h Handler, msg Msg, arg int) {
	if min := satAdd(r.src.now, r.latency); t < min {
		panic("sim: remote event scheduled under the link's latency floor")
	}
	src := r.src
	if src == r.dst || !src.eng.running {
		r.dst.Schedule(t, h, msg, arg)
		return
	}
	if t < r.nextSend {
		panic("sim: remote event scheduled under the link's next-send bound")
	}
	r.dst.enqueueStamped(t, src.nextSeq(), record{h: h, msg: msg, arg: arg})
	src.eng.crossMsgs++
	if src.dynamic {
		if back := satAdd(t, src.eng.dist[r.dst.idx][src.idx]); back < src.curLimit {
			src.curLimit = back
		}
	}
}

// satAdd adds two times, saturating at TimeInf.
func satAdd(a, b Time) Time {
	if b >= TimeInf-a {
		return TimeInf
	}
	return a + b
}
