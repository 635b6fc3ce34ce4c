package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"sync"
	"testing"

	"mgpucompress/internal/metrics"
)

// This file is the schedule-independence regression gate for the parallel
// sweep path (and, eventually, the parallel-DES work): N engines running
// on racing goroutines must each produce a digest byte-identical to a solo
// run, message IDs and metrics snapshot included. Any globalmut-class bug
// — mutable package-level state shared between concurrently running
// engines, like the process-global message-ID counter this repository once
// had — shifts per-run values with the goroutine schedule and fails the
// comparison. Run under -race (the CI default) it also catches the data
// race itself.

// schedDriver fires one request per tick and folds every reply — ID,
// timestamps, payload — into a hash.
type schedDriver struct {
	ComponentBase
	part   *Partition
	out    *Port
	in     *Port
	dst    *Port
	rounds int
	sent   int
	sum    *[32]byte
	h      []byte
}

func (d *schedDriver) Handle(e *Event) error {
	if d.sent < d.rounds {
		m := &testMsg{MsgMeta: MsgMeta{Dst: d.dst, Bytes: 64}, payload: d.sent}
		d.out.Send(e.Time(), m)
		d.sent++
		d.part.ScheduleTick(e.Time()+1, d)
	}
	return nil
}

func (d *schedDriver) NotifyRecv(now Time, p *Port) {
	for {
		m := p.Retrieve(now)
		if m == nil {
			return
		}
		meta := m.Meta()
		var rec [40]byte
		binary.LittleEndian.PutUint64(rec[0:], meta.ID)
		binary.LittleEndian.PutUint64(rec[8:], uint64(meta.SendTime))
		binary.LittleEndian.PutUint64(rec[16:], uint64(meta.RecvTime))
		binary.LittleEndian.PutUint64(rec[24:], uint64(m.(*testMsg).payload))
		binary.LittleEndian.PutUint64(rec[32:], uint64(now))
		d.h = append(d.h, rec[:]...)
	}
}

func (d *schedDriver) NotifyPortFree(Time, *Port) {}

// schedEcho bounces every request back to the driver as a fresh message,
// whose ID Port.Send assigns from the engine counter.
type schedEcho struct {
	ComponentBase
	in   *Port
	out  *Port
	back *Port
}

func (c *schedEcho) Handle(*Event) error { return nil }

func (c *schedEcho) NotifyRecv(now Time, p *Port) {
	for {
		m := p.Retrieve(now)
		if m == nil {
			return
		}
		rsp := &testMsg{MsgMeta: MsgMeta{Dst: c.back, Bytes: 64}, payload: m.(*testMsg).payload}
		c.out.Send(now, rsp)
	}
}

func (c *schedEcho) NotifyPortFree(Time, *Port) {}

// runScheduleDigest runs one complete request/echo simulation and digests
// everything schedule-sensitive state could perturb: the reply stream
// (message IDs included) and the engine's metrics snapshot.
func runScheduleDigest(t *testing.T, rounds int) [32]byte {
	e := NewEngine()
	p0 := e.Partition(0)
	drv := &schedDriver{ComponentBase: NewComponentBase("drv"), part: p0, rounds: rounds}
	ech := &schedEcho{ComponentBase: NewComponentBase("echo")}
	drv.out = NewPort(drv, "drv.out", 0)
	drv.in = NewPort(drv, "drv.in", 0)
	ech.in = NewPort(ech, "echo.in", 256) // bounded: parking paths run too
	ech.out = NewPort(ech, "echo.out", 0)
	conn := NewDirectConnection("link", p0, 2)
	for _, p := range []*Port{drv.out, drv.in, ech.in, ech.out} {
		conn.Plug(p)
	}
	drv.dst = ech.in
	ech.back = drv.in

	reg := metrics.NewRegistry()
	e.RegisterMetrics(reg, "sim")
	p0.ScheduleTick(0, drv)
	if err := e.Run(); err != nil {
		t.Error(err)
	}
	var snap bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&snap); err != nil {
		t.Error(err)
	}
	return sha256.Sum256(append(drv.h, snap.Bytes()...))
}

// TestScheduleIndependence: the digest of a run must not depend on what
// else the process is doing — not on other engines running concurrently,
// not on GOMAXPROCS, not on how many runs came before.
func TestScheduleIndependence(t *testing.T) {
	const rounds = 200
	want := runScheduleDigest(t, rounds)

	// A later solo run must match: a cross-run counter (the old global
	// message-ID counter) would already diverge here.
	if again := runScheduleDigest(t, rounds); again != want {
		t.Fatal("second solo run diverged from the first: state leaked between runs")
	}

	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		prev := runtime.GOMAXPROCS(procs)
		const fleet = 8
		digests := make([][32]byte, fleet)
		var wg sync.WaitGroup
		for i := range digests {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				digests[i] = runScheduleDigest(t, rounds)
			}(i)
		}
		wg.Wait()
		runtime.GOMAXPROCS(prev)
		for i, d := range digests {
			if d != want {
				t.Errorf("GOMAXPROCS=%d: concurrent run %d diverged from the solo run", procs, i)
			}
		}
	}
}
