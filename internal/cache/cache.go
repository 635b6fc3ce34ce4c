// Package cache implements the set-associative caches of the simulated GPU
// (L1 vector/scalar/instruction caches and the L2 banks of Table VII).
//
// Caches are timing models: data always lives in the mem.Space backing
// store (the platform is write-through end to end), so a cache holds tags
// and LRU state only. Hits respond after the hit latency with data read
// from the space; misses allocate an MSHR, fetch the line from the next
// level, and coalesce duplicate requests. Requests that the cacheable
// predicate rejects (remote addresses at L1, which the paper routes to the
// RDMA engine instead of caching) are forwarded without allocation.
package cache

import (
	"fmt"

	"mgpucompress/internal/mem"
	"mgpucompress/internal/metrics"
	"mgpucompress/internal/sim"
)

// Config sizes a cache.
type Config struct {
	SizeBytes  int
	Ways       int
	HitLatency sim.Time
	// IssueWidth is the number of requests the cache can start per cycle.
	IssueWidth int
	// MaxMSHR bounds outstanding misses; when full the cache stops
	// dequeuing, which back-pressures the upper level.
	MaxMSHR         int
	PortBufferBytes int
	// Cacheable decides whether an address may allocate in this cache.
	// Nil means everything is cacheable. Non-cacheable requests are
	// forwarded to the bottom router untouched.
	Cacheable func(addr uint64) bool
}

// L1Config returns the Table VII L1 vector cache: 16 KB, 4-way.
func L1Config() Config {
	return Config{
		SizeBytes:       16 * 1024,
		Ways:            4,
		HitLatency:      1,
		IssueWidth:      4,
		MaxMSHR:         16,
		PortBufferBytes: 4 * 1024,
	}
}

// L2Config returns one Table VII L2 bank: 256 KB, 16-way.
func L2Config() Config {
	return Config{
		SizeBytes:       256 * 1024,
		Ways:            16,
		HitLatency:      20,
		IssueWidth:      4,
		MaxMSHR:         32,
		PortBufferBytes: 8 * 1024,
	}
}

type set struct {
	tags []uint64 // line-aligned addresses; LRU order, front = most recent
}

// mshrEntry tracks one outstanding line fetch and the reads waiting for
// it. Entries live from a miss to its fill inside one cache and are
// recycled through the cache's free list.
type mshrEntry struct {
	// waiters are the reads to answer, in arrival order. A new entry backs
	// them with first, so a miss that never coalesces needs no slice.
	waiters []mem.ReplyTo
	served  int // waiters already answered
	first   [1]mem.ReplyTo
}

// forwardEntry is whom to answer for a write or a bypassed read passed down.
type forwardEntry struct {
	to    mem.ReplyTo
	write bool
}

// Cache is a set-associative, write-through, no-write-allocate cache.
type Cache struct {
	sim.ComponentBase
	part   *sim.Partition
	ticker *sim.Ticker
	cfg    Config
	space  *mem.Space
	msgs   *mem.Pool

	// Top receives requests from the level above; Bottom talks to the
	// level below through the router.
	Top    *sim.Port
	Bottom *sim.Port

	// Router maps an address to the bottom-level destination port (L2
	// bank, DRAM channel, or the RDMA engine).
	Router func(addr uint64) *sim.Port

	sets    []set
	numSets int
	// mshr holds the outstanding fetches keyed by line address: a miss
	// coalesces with its line's entry, and a fill finds it by the Addr the
	// level below echoes (fetches are line-aligned, one per line at a time).
	mshr     map[uint64]*mshrEntry
	freeMSHR []*mshrEntry
	// forwarded holds the requests passed down, keyed by forwarded ID.
	forwarded map[uint64]forwardEntry

	// Stats
	Hits, Misses, Coalesced uint64
	WritesSeen              uint64
	Bypassed                uint64
}

// RegisterMetrics exposes the cache counters under prefix (e.g.
// "gpu0/l1_2"). The closures read the same fields the stats aggregation
// reads, keeping one source of truth per counter.
func (c *Cache) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.CounterFunc(prefix+"/hits", func() uint64 { return c.Hits })
	reg.CounterFunc(prefix+"/misses", func() uint64 { return c.Misses })
	reg.CounterFunc(prefix+"/coalesced", func() uint64 { return c.Coalesced })
	reg.CounterFunc(prefix+"/writes_seen", func() uint64 { return c.WritesSeen })
	reg.CounterFunc(prefix+"/bypassed", func() uint64 { return c.Bypassed })
}

// New builds a cache bound to the functional space. A config that cannot
// run (no sets, no issue slot, no MSHR) is a wiring bug and panics.
func New(name string, part *sim.Partition, space *mem.Space, cfg Config) *Cache {
	if cfg.Ways <= 0 || cfg.SizeBytes/cfg.Ways/mem.LineSize <= 0 {
		panic(fmt.Sprintf("cache %s: bad geometry %d/%d/%d", name, cfg.SizeBytes, cfg.Ways, mem.LineSize))
	}
	if cfg.IssueWidth <= 0 {
		panic(fmt.Sprintf("cache %s: IssueWidth %d must be positive", name, cfg.IssueWidth))
	}
	if cfg.MaxMSHR <= 0 {
		panic(fmt.Sprintf("cache %s: MaxMSHR %d must be positive", name, cfg.MaxMSHR))
	}
	numSets := cfg.SizeBytes / cfg.Ways / mem.LineSize
	c := &Cache{
		ComponentBase: sim.NewComponentBase(name),
		part:          part,
		cfg:           cfg,
		space:         space,
		msgs:          mem.PoolOf(part),
		numSets:       numSets,
		sets:          make([]set, numSets),
		mshr:          make(map[uint64]*mshrEntry),
		forwarded:     make(map[uint64]forwardEntry),
	}
	c.Top = sim.NewPort(c, name+".Top", cfg.PortBufferBytes)
	c.Bottom = sim.NewPort(c, name+".Bottom", cfg.PortBufferBytes)
	c.ticker = sim.NewTicker(part, c)
	return c
}

func (c *Cache) lineAddr(addr uint64) uint64 { return addr &^ (mem.LineSize - 1) }

func (c *Cache) setOf(lineAddr uint64) *set {
	return &c.sets[(lineAddr/mem.LineSize)%uint64(c.numSets)]
}

// lookup reports whether the line is present and refreshes LRU order.
func (c *Cache) lookup(lineAddr uint64) bool {
	s := c.setOf(lineAddr)
	for i, t := range s.tags {
		if t == lineAddr {
			copy(s.tags[1:i+1], s.tags[:i])
			s.tags[0] = lineAddr
			return true
		}
	}
	return false
}

// install inserts the line, evicting the LRU victim if needed (write-through
// caches discard victims silently).
func (c *Cache) install(lineAddr uint64) {
	s := c.setOf(lineAddr)
	for i, t := range s.tags {
		if t == lineAddr {
			copy(s.tags[1:i+1], s.tags[:i])
			s.tags[0] = lineAddr
			return
		}
	}
	if len(s.tags) < c.cfg.Ways {
		s.tags = append(s.tags, 0)
	}
	copy(s.tags[1:], s.tags)
	s.tags[0] = lineAddr
}

// Invalidate drops every tag. The platform invalidates L1 caches at kernel
// boundaries, the GCN behavior that keeps non-coherent L1s correct.
func (c *Cache) Invalidate() {
	for i := range c.sets {
		c.sets[i].tags = c.sets[i].tags[:0]
	}
}

// Contains reports whether the line holding addr is cached (for tests).
func (c *Cache) Contains(addr uint64) bool {
	la := c.lineAddr(addr)
	s := c.setOf(la)
	for _, t := range s.tags {
		if t == la {
			return true
		}
	}
	return false
}

// NotifyRecv implements sim.Component.
func (c *Cache) NotifyRecv(now sim.Time, _ *sim.Port) { c.ticker.TickNow(now) }

// NotifyPortFree implements sim.Component.
func (c *Cache) NotifyPortFree(now sim.Time, _ *sim.Port) { c.ticker.TickNow(now) }

// Handle implements sim.Handler: ticks process the ports.
func (c *Cache) Handle(e *sim.Event) error {
	c.tick(e.Time())
	return nil
}

// hitResponse sends the record's hit response once the hit latency has
// elapsed.
type hitResponse struct{ c *Cache }

func (r hitResponse) Handle(e *sim.Event) error {
	if !r.c.Top.Send(e.Time(), e.Msg()) {
		return fmt.Errorf("%s: hit response rejected", r.c.Name())
	}
	return nil
}

func (c *Cache) tick(now sim.Time) {
	progress := false
	// Responses from below first: they free MSHRs.
	for i := 0; i < c.cfg.IssueWidth; i++ {
		if !c.processBottom(now) {
			break
		}
		progress = true
	}
	for i := 0; i < c.cfg.IssueWidth; i++ {
		if !c.processTop(now) {
			break
		}
		progress = true
	}
	if progress {
		c.ticker.TickLater(now)
	}
}

func (c *Cache) processTop(now sim.Time) bool {
	msg := c.Top.Peek()
	if msg == nil {
		return false
	}
	switch req := msg.(type) {
	case *mem.ReadReq:
		return c.handleRead(now, req)
	case *mem.WriteReq:
		return c.handleWrite(now, req)
	default:
		panic(fmt.Sprintf("%s: unexpected top message %T", c.Name(), msg))
	}
}

// send sends m from port, releasing it if the connection rejects it.
func (c *Cache) send(now sim.Time, port *sim.Port, m sim.Msg) bool {
	if port.Send(now, m) {
		return true
	}
	c.msgs.Release(m)
	return false
}

// retire retrieves the handled request at the head of Top and releases it.
func (c *Cache) retire(now sim.Time) {
	c.msgs.Release(c.Top.Retrieve(now))
}

func (c *Cache) handleRead(now sim.Time, req *mem.ReadReq) bool {
	if c.cfg.Cacheable != nil && !c.cfg.Cacheable(req.Addr) {
		// Forward without allocation (e.g. remote address at L1 → RDMA).
		fwd := c.msgs.ReadReq(c.Bottom, c.Router(req.Addr), req.Addr, req.N)
		return c.forward(now, fwd, forwardEntry{to: req.ReplyTo()}, &c.Bypassed)
	}

	la := c.lineAddr(req.Addr)
	if c.lookup(la) {
		c.Hits++
		c.Top.Retrieve(now)
		rsp := c.msgs.DataReady(c.Top, req.Src, req.ID, req.Addr, req.N)
		c.space.ReadInto(req.Addr, rsp.Data)
		c.part.AssignMsgID(rsp)
		c.part.Schedule(now+c.cfg.HitLatency, hitResponse{c}, rsp, 0)
		c.msgs.Release(req)
		return true
	}

	if entry, ok := c.mshr[la]; ok {
		// Coalesce with the outstanding fetch.
		c.Coalesced++
		entry.waiters = append(entry.waiters, req.ReplyTo())
		c.retire(now)
		return true
	}

	if len(c.mshr) >= c.cfg.MaxMSHR {
		return false // back-pressure
	}
	dst := c.Router(la)
	fetch := c.msgs.ReadReq(c.Bottom, dst, la, mem.LineSize)
	c.part.AssignMsgID(fetch)
	if !c.send(now, c.Bottom, fetch) {
		return false
	}
	c.Misses++
	entry := c.takeMSHR()
	entry.waiters = append(entry.waiters, req.ReplyTo())
	c.mshr[la] = entry
	c.retire(now)
	return true
}

func (c *Cache) handleWrite(now sim.Time, req *mem.WriteReq) bool {
	// Write-through, no-write-allocate: always forward; keep the tag if
	// present (the line stays valid because data lives in the space).
	fwd := c.msgs.WriteReq(c.Bottom, c.Router(req.Addr), req.Addr, len(req.Data))
	copy(fwd.Data, req.Data)
	return c.forward(now, fwd, forwardEntry{to: req.ReplyTo(), write: true}, &c.WritesSeen)
}

// forward sends fwd, the cache's copy of the request at the head of Top,
// below, counts it in *n, records f under fwd's ID and retires the request.
// It reports false, with fwd released, if the level below turns fwd away.
func (c *Cache) forward(now sim.Time, fwd sim.Msg, f forwardEntry, n *uint64) bool {
	c.part.AssignMsgID(fwd)
	if !c.send(now, c.Bottom, fwd) {
		return false
	}
	*n++
	c.forwarded[fwd.Meta().ID] = f
	c.retire(now)
	return true
}

// answer passes rsp, the response at the head of Bottom to the request
// forwarded as rspTo, up to f's requester, then drops the entry and retires
// rsp. A response of the wrong kind for f panics.
func (c *Cache) answer(now sim.Time, rsp sim.Msg, rspTo uint64, f forwardEntry) bool {
	data, read := rsp.(*mem.DataReady)
	if read == f.write {
		panic(fmt.Sprintf("%s: %T answers forwarded request %d at %#x (a write: %t)",
			c.Name(), rsp, rspTo, f.to.Addr, f.write))
	}
	var up sim.Msg
	if read {
		d := c.msgs.DataReady(c.Top, f.to.Src, f.to.ID, f.to.Addr, len(data.Data))
		copy(d.Data, data.Data)
		up = d
	} else {
		up = c.msgs.WriteACK(c.Top, f.to.Src, f.to.ID, f.to.Addr)
	}
	c.part.AssignMsgID(up)
	if !c.send(now, c.Top, up) {
		return false
	}
	delete(c.forwarded, rspTo)
	c.msgs.Release(c.Bottom.Retrieve(now))
	return true
}

func (c *Cache) processBottom(now sim.Time) bool {
	msg := c.Bottom.Peek()
	if msg == nil {
		return false
	}
	switch rsp := msg.(type) {
	case *mem.DataReady:
		if f, ok := c.forwarded[rsp.RspTo]; ok {
			return c.answer(now, rsp, rsp.RspTo, f)
		}
		entry, ok := c.mshr[rsp.Addr]
		if !ok {
			panic(fmt.Sprintf("%s: fill for line %#x (response to request %d) matches no MSHR", c.Name(), rsp.Addr, rsp.RspTo))
		}
		// Answer the waiters in arrival order, one per call; the fill stays
		// at the head of Bottom until all of them have a response.
		if entry.served < len(entry.waiters) {
			w := entry.waiters[entry.served]
			up := c.msgs.DataReady(c.Top, w.Src, w.ID, w.Addr, w.N)
			c.space.ReadInto(w.Addr, up.Data)
			c.part.AssignMsgID(up)
			if !c.send(now, c.Top, up) {
				return false
			}
			entry.served++
		}
		if entry.served < len(entry.waiters) {
			return true // stay on this fill next iteration
		}
		c.install(rsp.Addr)
		delete(c.mshr, rsp.Addr)
		c.releaseMSHR(entry)
		c.msgs.Release(c.Bottom.Retrieve(now))
		return true
	case *mem.WriteACK:
		f, ok := c.forwarded[rsp.RspTo]
		if !ok {
			panic(fmt.Sprintf("%s: ack for unknown write %d", c.Name(), rsp.RspTo))
		}
		return c.answer(now, rsp, rsp.RspTo, f)
	default:
		panic(fmt.Sprintf("%s: unexpected bottom message %T", c.Name(), msg))
	}
}

// takeMSHR returns a cleared entry from the free list, or a new one.
func (c *Cache) takeMSHR() *mshrEntry {
	if n := len(c.freeMSHR); n > 0 {
		e := c.freeMSHR[n-1]
		c.freeMSHR = c.freeMSHR[:n-1]
		return e
	}
	e := new(mshrEntry)
	e.waiters = e.first[:0]
	return e
}

// releaseMSHR clears a retired entry, keeping only the capacity of its
// waiter slice, and returns it to the free list.
func (c *Cache) releaseMSHR(e *mshrEntry) {
	clear(e.waiters)
	*e = mshrEntry{waiters: e.waiters[:0]}
	c.freeMSHR = append(c.freeMSHR, e)
}

// CheckQuiescent reports an error if the cache still tracks an outstanding
// fetch or forwarded request.
func (c *Cache) CheckQuiescent() error {
	if n := len(c.mshr) + len(c.forwarded); n != 0 {
		return fmt.Errorf("%s: %d MSHRs and %d forwarded requests outstanding",
			c.Name(), len(c.mshr), len(c.forwarded))
	}
	return nil
}
