package sim

import (
	"fmt"
	"strings"
	"testing"
)

// boundLink is a link as the window-bound oracle sees it: the Remote and
// its endpoints, straight from Engine.Link.
type boundLink struct {
	src, dst *Partition
	r        *Remote
}

// refWindowLimit is the adaptive window limit as the plain loop over every
// cross link: the minimum of max(head+latency, nextSend) over the links
// whose source has pending work.
func refWindowLimit(links []boundLink) Time {
	limit := TimeInf
	for _, l := range links {
		if l.src == l.dst {
			continue
		}
		h := l.src.headTime()
		if h == TimeInf {
			continue
		}
		b := satAdd(h, l.r.MinLatency())
		if ns := l.r.nextSend; ns > b {
			b = ns
		}
		if b < limit {
			limit = b
		}
	}
	return limit
}

// noop is a handler that does nothing; the fuzz target only queues records
// to set partition heads.
type noop struct{}

func (noop) Handle(*Event) error { return nil }

// FuzzWindowBound requires nextWindow's per-partition limit to equal the
// all-links reference after every step of a random script: 1–8 partitions,
// links of mixed latencies (local ones included), records queued at random
// times, next-send promises raised one link at a time or on every link of a
// source, and links added between runs.
func FuzzWindowBound(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 5, 0, 1, 1, 1, 2, 0, 2, 0, 0, 9, 1, 0, 40, 2, 1})
	f.Add([]byte("per-partition bounds equal the all-links loop"))
	// Two partitions, one unpromised link 0->1, a record at 5 on 0, then
	// every link of 0 promised silent forever: the bound must leave the
	// O(1) path.
	f.Add([]byte{1, 1, 0, 1, 0, 1, 0, 0, 5, 3, 0, 10, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		s := &quietScript{b: script}
		e := NewEngine(WithPartitions(1 + s.next(8)))
		var links []boundLink
		addLink := func() {
			src, dst := e.Partition(s.next(e.Partitions())), e.Partition(s.next(e.Partitions()))
			lat := Time(1 + s.next(4))
			links = append(links, boundLink{src: src, dst: dst, r: e.Link(src, dst, lat)})
		}
		for n := s.next(24); n > 0; n-- {
			addLink()
		}
		for _, l := range links {
			if s.next(3) == 0 {
				l.r.SetNextSend(Time(s.next(64)))
			}
		}
		e.prepare()
		for step := 0; s.i < len(s.b); step++ {
			switch s.next(5) {
			case 0, 1:
				p := e.Partition(s.next(e.Partitions()))
				p.Schedule(Time(s.next(64)), noop{}, nil, 0)
			case 2:
				if len(links) > 0 {
					l := links[s.next(len(links))]
					l.r.SetNextSend(Time(s.next(96)))
				}
			case 3:
				src := e.Partition(s.next(e.Partitions()))
				ns := Time(s.next(96))
				if s.next(4) == 0 {
					ns = TimeInf
				}
				for _, l := range links {
					if l.src == src {
						l.r.SetNextSend(ns)
					}
				}
			case 4:
				addLink()
				e.prepare()
			}
			got, ok, err := e.nextWindow()
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if !ok {
				continue // nothing queued yet
			}
			if want := refWindowLimit(links); got != want {
				t.Fatalf("step %d: per-partition limit %d, all-links limit %d", step, got, want)
			}
		}
	})
}

// linker adds a link from inside a handler, which a running engine refuses.
type linker struct{ e *Engine }

func (l linker) Handle(*Event) error {
	l.e.Link(l.e.Partition(0), l.e.Partition(1), 1)
	return nil
}

// TestLinkDuringRunPanics pins that links are declared outside Run: the
// window scheduler summarizes them per source partition when Run starts,
// so one added mid-run would never bound a window.
func TestLinkDuringRunPanics(t *testing.T) {
	e := NewEngine(WithPartitions(2))
	e.Partition(0).ScheduleTick(0, linker{e})
	defer func() {
		rec := recover()
		if rec == nil || !strings.Contains(fmt.Sprint(rec), "Link while the engine runs") {
			t.Fatalf("expected a panic from Link during Run, got %v", rec)
		}
	}()
	_ = e.Run()
}

// TestLinkBetweenRunsBoundsNextRun checks the other side: a link added
// between runs is part of the next run's limits.
func TestLinkBetweenRunsBoundsNextRun(t *testing.T) {
	e := NewEngine(WithPartitions(2))
	p0, p1 := e.Partition(0), e.Partition(1)
	p0.Schedule(5, noop{}, nil, 0)
	p1.Schedule(100, noop{}, nil, 0)
	if err := e.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	e.Link(p0, p1, 3)
	e.prepare()
	p0.Schedule(20, noop{}, nil, 0)
	if got, _, _ := e.nextWindow(); got != 23 {
		t.Fatalf("limit %d after adding a 3-cycle link from a partition with head 20, want 23", got)
	}
}
