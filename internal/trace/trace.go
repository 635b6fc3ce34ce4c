// Package trace records inter-GPU fabric activity for offline analysis:
// who talked to whom, when, and how the link's utilization evolved — the
// visibility a simulator needs when the answer to "why is this slow?" is a
// timeline rather than a single number.
package trace

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"

	"mgpucompress/internal/sim"
)

// Transfer is one completed fabric transmission.
type Transfer struct {
	Start sim.Time `json:"start"`
	End   sim.Time `json:"end"`
	Src   string   `json:"src"`
	Dst   string   `json:"dst"`
	Bytes int      `json:"bytes"`
	Kind  string   `json:"kind"` // message type name
}

// Log accumulates transfers. A zero Log is ready to use; Cap bounds memory
// for long runs (0 = unbounded).
type Log struct {
	Cap       int
	transfers []Transfer
	dropped   uint64
}

// Record appends a transfer, dropping it if the log is full.
func (l *Log) Record(t Transfer) {
	if l.Cap > 0 && len(l.transfers) >= l.Cap {
		l.dropped++
		return
	}
	l.transfers = append(l.transfers, t)
}

// Clone returns a copy of the log that later records leave unchanged (nil
// for a nil log).
func (l *Log) Clone() *Log {
	if l == nil {
		return nil
	}
	c := *l
	c.transfers = slices.Clip(l.transfers)
	return &c
}

// Transfers returns the recorded transfers in completion order.
func (l *Log) Transfers() []Transfer { return l.transfers }

// Dropped returns how many transfers did not fit under Cap.
func (l *Log) Dropped() uint64 { return l.dropped }

// logJSON is the exported wire form of a Log.
type logJSON struct {
	Cap       int        `json:"cap,omitempty"`
	Transfers []Transfer `json:"transfers"`
	Dropped   uint64     `json:"dropped,omitempty"`
}

// MarshalJSON exports the full transfer list and the drop accounting, so a
// capped log round-trips without losing how much it dropped.
func (l Log) MarshalJSON() ([]byte, error) {
	return json.Marshal(logJSON{Cap: l.Cap, Transfers: l.transfers, Dropped: l.dropped})
}

// UnmarshalJSON restores a marshaled log.
func (l *Log) UnmarshalJSON(b []byte) error {
	var w logJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	l.Cap, l.transfers, l.dropped = w.Cap, w.Transfers, w.Dropped
	return nil
}

// UtilizationTimeline bins the busy time of the link into windows of bin
// cycles, returning per-bin utilization in [0, 1]. For a crossbar the
// values can exceed 1 (multiple links busy).
func (l *Log) UtilizationTimeline(bin sim.Time) []float64 {
	if bin == 0 || len(l.transfers) == 0 {
		return nil
	}
	var end sim.Time
	for _, t := range l.transfers {
		if t.End > end {
			end = t.End
		}
	}
	bins := make([]float64, int((end-1)/bin)+1)
	for _, t := range l.transfers {
		for b := t.Start / bin; b <= (t.End-1)/bin && int(b) < len(bins); b++ {
			winStart := b * bin
			winEnd := winStart + bin
			s, e := t.Start, t.End
			if s < winStart {
				s = winStart
			}
			if e > winEnd {
				e = winEnd
			}
			if e > s {
				bins[b] += float64(e-s) / float64(bin)
			}
		}
	}
	return bins
}

// PairStat summarizes one (src, dst) flow.
type PairStat struct {
	Src, Dst  string
	Transfers uint64
	Bytes     uint64
}

// Pairs returns per-(src,dst) totals sorted by bytes descending.
func (l *Log) Pairs() []PairStat {
	agg := map[[2]string]*PairStat{}
	for _, t := range l.transfers {
		key := [2]string{t.Src, t.Dst}
		ps := agg[key]
		if ps == nil {
			ps = &PairStat{Src: t.Src, Dst: t.Dst}
			agg[key] = ps
		}
		ps.Transfers++
		ps.Bytes += uint64(t.Bytes)
	}
	out := make([]PairStat, 0, len(agg))
	for _, ps := range agg {
		out = append(out, *ps)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Src+out[i].Dst < out[j].Src+out[j].Dst
	})
	return out
}

// KindStat summarizes one message type.
type KindStat struct {
	Kind      string
	Transfers uint64
	Bytes     uint64
}

// Kinds returns per-message-type totals sorted by bytes descending.
func (l *Log) Kinds() []KindStat {
	agg := map[string]*KindStat{}
	for _, t := range l.transfers {
		ks := agg[t.Kind]
		if ks == nil {
			ks = &KindStat{Kind: t.Kind}
			agg[t.Kind] = ks
		}
		ks.Transfers++
		ks.Bytes += uint64(t.Bytes)
	}
	out := make([]KindStat, 0, len(agg))
	for _, ks := range agg {
		out = append(out, *ks)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Summary renders a human-readable report: utilization timeline (coarse
// sparkline), busiest flows and the message-type mix.
func (l *Log) Summary(bin sim.Time, topPairs int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fabric trace: %d transfers", len(l.transfers))
	if l.dropped > 0 {
		fmt.Fprintf(&sb, " (+%d dropped beyond cap)", l.dropped)
	}
	sb.WriteString("\n")
	if bins := l.UtilizationTimeline(bin); len(bins) > 0 {
		fmt.Fprintf(&sb, "utilization per %d-cycle window:\n  ", bin)
		for _, u := range bins {
			sb.WriteByte(sparkChar(u))
		}
		sb.WriteString("\n")
	}
	sb.WriteString("busiest flows:\n")
	for i, ps := range l.Pairs() {
		if i >= topPairs {
			break
		}
		fmt.Fprintf(&sb, "  %-24s -> %-24s %8d msgs %10d B\n", ps.Src, ps.Dst, ps.Transfers, ps.Bytes)
	}
	sb.WriteString("message mix:\n")
	for _, ks := range l.Kinds() {
		fmt.Fprintf(&sb, "  %-20s %8d msgs %10d B\n", ks.Kind, ks.Transfers, ks.Bytes)
	}
	return sb.String()
}

func sparkChar(u float64) byte {
	levels := " .:-=+*#%@"
	idx := int(u * float64(len(levels)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(levels) {
		idx = len(levels) - 1
	}
	return levels[idx]
}

// CSV renders the raw transfer log as CSV for external tooling.
func (l *Log) CSV() string {
	var sb strings.Builder
	sb.WriteString("start,end,src,dst,bytes,kind\n")
	for _, t := range l.transfers {
		fmt.Fprintf(&sb, "%d,%d,%s,%s,%d,%s\n", t.Start, t.End, t.Src, t.Dst, t.Bytes, t.Kind)
	}
	return sb.String()
}
