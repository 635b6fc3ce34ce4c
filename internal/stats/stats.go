// Package stats provides the measurement machinery behind the paper's
// characterization: byte-level Shannon entropy (Table V, Fig. 1), traffic
// counters, compression-ratio accounting, and time series of consecutive
// inter-GPU transfers.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"mgpucompress/internal/comp"
)

// ByteEntropy computes the Shannon entropy of data at byte granularity,
// normalized to [0, 1] (bits of entropy per byte, divided by 8). This is
// the entropy measure of Table V and Fig. 1b/1d.
func ByteEntropy(data []byte) float64 {
	var c byteCounts
	c.count(data)
	return c.entropy(len(data), nil)
}

// byteCounts is one pass over a line: it runs once per transferred line, so
// it counts into 32-bit counters (data is shorter than 4 GiB) and marks the
// byte values it sees in a 256-bit mask, so that readers visit only those
// values, in ascending order.
type byteCounts struct {
	counts [256]uint32
	seen   [4]uint64
}

func (c *byteCounts) count(data []byte) {
	for _, b := range data {
		c.counts[b]++
		c.seen[b>>6] |= 1 << (b & 63)
	}
}

// lineTerms[c] is the entropy term p*log2(p) of a byte value seen c times
// in a full line, p = c/LineSize, computed with the same expression
// byteCounts.entropy evaluates for other lengths, so either path gives the
// same bits.
var lineTerms = func() (t [comp.LineSize + 1]float64) {
	for c := 1; c <= comp.LineSize; c++ {
		p := float64(c) / float64(comp.LineSize)
		t[c] = p * math.Log2(p)
	}
	return t
}()

// entropy is ByteEntropy of the n counted bytes; when hist is not nil, it
// also adds the counts into hist. Visiting the seen values in ascending
// order sums the terms in the same order as a scan over all 256 counts, so
// the float bits match that scan's. A full line, the length every transfer
// carries, reads its terms from lineTerms instead of calling Log2.
func (c *byteCounts) entropy(n int, hist *[256]uint64) float64 {
	h := 0.0
	for w, word := range c.seen {
		for ; word != 0; word &= word - 1 {
			v := w<<6 | bits.TrailingZeros64(word)
			if hist != nil {
				hist[v] += uint64(c.counts[v])
			}
			if n == comp.LineSize {
				h -= lineTerms[c.counts[v]]
				continue
			}
			p := float64(c.counts[v]) / float64(n)
			h -= p * math.Log2(p)
		}
	}
	return h / 8
}

// Traffic accumulates inter-GPU traffic for one simulation run.
type Traffic struct {
	// RemoteReads and RemoteWrites count remote line accesses (Table V
	// reports them in thousands).
	RemoteReads  uint64
	RemoteWrites uint64
	// HeaderBytes and PayloadBytes decompose the bytes that crossed the
	// fabric. UncompressedPayloadBytes is what the payload would have been
	// without compression; the traffic reduction of Fig. 5/6 follows.
	HeaderBytes              uint64
	PayloadBytes             uint64
	UncompressedPayloadBytes uint64
	// Messages counts fabric messages by header type.
	Messages uint64
	// EntropySum accumulates per-line entropy to report the average
	// (Fig. 1 granularity).
	EntropySum   float64
	EntropyLines uint64
	// ByteCounts is the aggregate byte histogram of all transferred
	// payloads; Table V's entropy column is computed from it. A 64-byte
	// line can expose at most log2(64)/8 = 0.75 of entropy on its own, so
	// per-line averaging cannot reach the paper's 0.96 for AES — the
	// aggregate distribution is the right granularity for Table V.
	ByteCounts [256]uint64
	// CompressedLines / Lines count payload-bearing transfers.
	Lines           uint64
	CompressedLines uint64
}

// AddLine records one payload-bearing transfer: the line's entropy, its raw
// size, and its on-wire size after policy processing.
func (t *Traffic) AddLine(line []byte, wireBytes int, compressed bool) {
	var c byteCounts
	c.count(line)
	t.EntropySum += c.entropy(len(line), &t.ByteCounts)
	t.EntropyLines++
	t.Lines++
	if compressed {
		t.CompressedLines++
	}
	t.UncompressedPayloadBytes += uint64(len(line))
	t.PayloadBytes += uint64(wireBytes)
}

// Merge folds o into t. Each RDMA engine keeps its own traffic ledger and
// the platform merges them in a fixed order (GPUs in index order, then the
// host); that order fixes the float bits of the EntropySum total, which the
// metric snapshot pins.
func (t *Traffic) Merge(o *Traffic) {
	t.RemoteReads += o.RemoteReads
	t.RemoteWrites += o.RemoteWrites
	t.HeaderBytes += o.HeaderBytes
	t.PayloadBytes += o.PayloadBytes
	t.UncompressedPayloadBytes += o.UncompressedPayloadBytes
	t.Messages += o.Messages
	t.EntropySum += o.EntropySum
	t.EntropyLines += o.EntropyLines
	for i, c := range o.ByteCounts {
		t.ByteCounts[i] += c
	}
	t.Lines += o.Lines
	t.CompressedLines += o.CompressedLines
}

// MeanEntropy returns the average per-line byte entropy (the Fig. 1
// measure).
func (t *Traffic) MeanEntropy() float64 {
	if t.EntropyLines == 0 {
		return 0
	}
	return t.EntropySum / float64(t.EntropyLines)
}

// Entropy returns the normalized Shannon entropy of the aggregate byte
// distribution of everything transferred — the Table V measure.
func (t *Traffic) Entropy() float64 {
	var total uint64
	for _, c := range t.ByteCounts {
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range t.ByteCounts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h / 8
}

// TotalBytes is everything that crossed the fabric.
func (t *Traffic) TotalBytes() uint64 { return t.HeaderBytes + t.PayloadBytes }

// CompressionRatio is uncompressed payload over compressed payload
// (Sec. IV-B definition).
func (t *Traffic) CompressionRatio() float64 {
	if t.PayloadBytes == 0 {
		return 1
	}
	return float64(t.UncompressedPayloadBytes) / float64(t.PayloadBytes)
}

// Sample is one point of the Fig. 1 time series: the entropy of one
// inter-GPU transfer and the per-codec compressed sizes in bytes.
type Sample struct {
	Index   int
	Entropy float64
	// Size holds the compressed size in bytes per algorithm.
	Size map[comp.Algorithm]int
}

// Series collects the first N payload transfers of a run, reproducing the
// "500 consecutive inter-GPU data accesses" of Fig. 1.
type Series struct {
	Limit   int
	Samples []Sample
	codecs  []comp.Compressor
}

// NewSeries collects up to limit samples.
func NewSeries(limit int) *Series {
	return &Series{Limit: limit, codecs: comp.AllCompressors()}
}

// Full reports whether the series reached its limit.
func (s *Series) Full() bool { return len(s.Samples) >= s.Limit }

// Observe adds one transfer to the series (no-op when full). Every codec is
// run on the line so the figure can compare them on identical data.
func (s *Series) Observe(line []byte) {
	if s.Full() {
		return
	}
	smp := Sample{
		Index:   len(s.Samples),
		Entropy: ByteEntropy(line),
		Size:    make(map[comp.Algorithm]int, len(s.codecs)),
	}
	for _, c := range s.codecs {
		// The figure only needs sizes, so the codec's size probe encodes
		// into its own scratch instead of allocating a bitstream.
		smp.Size[c.Algorithm()] = (c.CompressedBits(line) + 7) / 8
	}
	s.Samples = append(s.Samples, smp)
}

// Histogram is a simple named distribution used in reports.
type Histogram struct {
	values []float64
}

// Add appends a value.
func (h *Histogram) Add(v float64) { h.values = append(h.values, v) }

// Count returns the number of values.
func (h *Histogram) Count() int { return len(h.values) }

// Mean returns the arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if len(h.values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range h.values {
		s += v
	}
	return s / float64(len(h.values))
}

// Percentile returns the p-th percentile (0..100) by nearest-rank, or 0
// when empty.
func (h *Histogram) Percentile(p float64) float64 {
	if len(h.values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), h.values...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Merge appends all of o's values into h.
func (h *Histogram) Merge(o *Histogram) {
	h.values = append(h.values, o.values...)
}

// MarshalJSON encodes the histogram as its value slice so run metrics
// survive the sweep journal's JSON round trip.
func (h Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(h.values)
}

// UnmarshalJSON restores a histogram serialized by MarshalJSON.
func (h *Histogram) UnmarshalJSON(b []byte) error {
	return json.Unmarshal(b, &h.values)
}

// Max returns the maximum, or 0 when empty.
func (h *Histogram) Max() float64 {
	m := 0.0
	for i, v := range h.values {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum, or 0 when empty.
func (h *Histogram) Min() float64 {
	m := 0.0
	for i, v := range h.values {
		if i == 0 || v < m {
			m = v
		}
	}
	return m
}

// Sum returns the total of all values.
func (h *Histogram) Sum() float64 {
	s := 0.0
	for _, v := range h.values {
		s += v
	}
	return s
}

// FormatKilo renders a count the way Table V does (in thousands, with a
// thousands separator for readability).
func FormatKilo(n uint64) string {
	k := n / 1000
	if k >= 1000 {
		return fmt.Sprintf("%d,%03d", k/1000, k%1000)
	}
	return fmt.Sprintf("%d", k)
}
