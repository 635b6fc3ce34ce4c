package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"

	"mgpucompress/internal/sim"
)

// Span is one timed interval on a named track: a fabric transfer, an
// adaptive controller phase, a kernel launch, a workload stage. Spans
// generalize Transfer — a Transfer is a span on the "fabric" track — and
// are the unit the Chrome trace-event exporter consumes.
type Span struct {
	// Track groups spans onto one timeline row (a Perfetto "thread"), e.g.
	// "fabric", "kernel", "ctrl2".
	Track string `json:"track"`
	// Name labels the interval ("run:BDI", "fir_transpose", ...).
	Name string `json:"name"`
	// Cat is the span category ("transfer", "phase", "kernel", "stage").
	Cat   string   `json:"cat,omitempty"`
	Start sim.Time `json:"start"`
	End   sim.Time `json:"end"`
	// Args carries span details into the trace viewer. Only json.Marshal
	// iterates this map, and Go marshals map keys sorted, so Args never
	// introduces iteration-order nondeterminism.
	Args map[string]string `json:"args,omitempty"`
}

// Recorder accumulates spans in record order. A zero Recorder is ready to
// use; Cap bounds memory for long runs (0 = unbounded), and the Dropped
// count survives JSON round trips just like Log's. Span sources on every
// simulation partition (controller phases, RDMA guards) share one Recorder
// per run; the run executes on one goroutine, and a Recorder is not safe for
// concurrent use.
type Recorder struct {
	Cap     int
	spans   []Span
	dropped uint64
}

// Record appends a span, dropping it if the recorder is full.
func (r *Recorder) Record(s Span) {
	if r.Cap > 0 && len(r.spans) >= r.Cap {
		r.dropped++
		return
	}
	r.spans = append(r.spans, s)
}

// Clone returns a copy of the recorder that later records leave
// unchanged.
func (r *Recorder) Clone() *Recorder {
	return &Recorder{Cap: r.Cap, spans: slices.Clip(r.spans), dropped: r.dropped}
}

// Spans returns the recorded spans in record order. Call it only after the
// simulation has quiesced.
func (r *Recorder) Spans() []Span {
	return r.spans
}

// Dropped returns how many spans did not fit under Cap.
func (r *Recorder) Dropped() uint64 {
	return r.dropped
}

// recorderJSON is the exported wire form of a Recorder.
type recorderJSON struct {
	Cap     int    `json:"cap,omitempty"`
	Spans   []Span `json:"spans"`
	Dropped uint64 `json:"dropped,omitempty"`
}

// MarshalJSON preserves the spans and the drop accounting.
func (r *Recorder) MarshalJSON() ([]byte, error) {
	return json.Marshal(recorderJSON{Cap: r.Cap, Spans: r.spans, Dropped: r.dropped})
}

// UnmarshalJSON restores a marshaled recorder.
func (r *Recorder) UnmarshalJSON(b []byte) error {
	var w recorderJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	r.Cap, r.spans, r.dropped = w.Cap, w.Spans, w.Dropped
	return nil
}

// Spans converts the transfer log into fabric-track spans, in record order.
func (l *Log) Spans() []Span {
	out := make([]Span, 0, len(l.transfers))
	for _, t := range l.transfers {
		out = append(out, Span{
			Track: "fabric",
			Name:  t.Kind,
			Cat:   "transfer",
			Start: t.Start,
			End:   t.End,
			Args: map[string]string{
				"src":   t.Src,
				"dst":   t.Dst,
				"bytes": strconv.Itoa(t.Bytes),
			},
		})
	}
	return out
}

// Summary condenses a span set to the numbers a live stream carries per
// completed job: how many spans on how many tracks, their summed duration,
// and the timeline extent. It is a pure function of the spans, so equal
// jobs summarize identically.
type Summary struct {
	Spans      int      `json:"spans"`
	Tracks     int      `json:"tracks"`
	TotalTicks uint64   `json:"total_ticks"`
	MaxEnd     sim.Time `json:"max_end"`
}

// Summarize folds the spans into a Summary.
func Summarize(spans []Span) Summary {
	s := Summary{Spans: len(spans)}
	tracks := make(map[string]bool)
	for _, sp := range spans {
		tracks[sp.Track] = true
		s.TotalTicks += uint64(sp.End - sp.Start)
		if sp.End > s.MaxEnd {
			s.MaxEnd = sp.End
		}
	}
	s.Tracks = len(tracks)
	return s
}

// Process is one timeline process in a Chrome trace: a named span set. A
// single simulation exports one process; a sweep exports one per job.
type Process struct {
	Name  string
	Spans []Span
}

// chromeEvent is one entry of the Chrome trace-event format ("X" complete
// events plus "M" metadata), loadable in Perfetto and chrome://tracing.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   uint64            `json:"ts"`
	Dur  uint64            `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// ExportChrome writes the processes as Chrome trace-event JSON. One
// simulated cycle maps to one microsecond of trace time (ts/dur are µs in
// the format), so a 1 GHz-cycle timeline reads as milliseconds-per-1000
// cycles in the viewer. Output bytes are a pure function of the input:
// tracks are numbered in sorted-name order and events keep record order, so
// equal runs export identical files.
func ExportChrome(w io.Writer, procs []Process) error {
	var events []chromeEvent
	for pid, proc := range procs {
		name := proc.Name
		if name == "" {
			name = fmt.Sprintf("process %d", pid)
		}
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]string{"name": name},
		})
		tracks := make(map[string]int)
		var trackNames []string
		for _, s := range proc.Spans {
			if _, ok := tracks[s.Track]; !ok {
				tracks[s.Track] = 0
				trackNames = append(trackNames, s.Track)
			}
		}
		sort.Strings(trackNames)
		for tid, t := range trackNames {
			tracks[t] = tid
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]string{"name": t},
			})
		}
		for _, s := range proc.Spans {
			dur := uint64(s.End - s.Start)
			if dur == 0 {
				dur = 1 // zero-width spans vanish in viewers
			}
			events = append(events, chromeEvent{
				Name: s.Name,
				Cat:  s.Cat,
				Ph:   "X",
				Ts:   uint64(s.Start),
				Dur:  dur,
				Pid:  pid,
				Tid:  tracks[s.Track],
				Args: s.Args,
			})
		}
	}
	b, err := json.MarshalIndent(chromeFile{TraceEvents: events}, "", " ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
