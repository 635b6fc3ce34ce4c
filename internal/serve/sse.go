package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"mgpucompress/internal/sweep"
)

// newLineScanner builds a scanner sized for SSE frames carrying metric
// deltas.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), sweep.MaxRecordBytes)
	return sc
}

// writeSSE encodes one Event as a Server-Sent-Events frame:
//
//	id: <epoch>.<seq>
//	event: <type>
//	data: <single-line JSON>
//	<blank>
//
// The id is the resume watermark in Watermark form: a standard SSE client
// replays it verbatim in the Last-Event-ID header on reconnect, which is
// exactly what the events handler needs to decide continuation vs gap.
// json.Marshal never emits raw newlines, so one data: line always suffices
// and the frame cannot be broken by event content.
func writeSSE(w io.Writer, ev Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %s\nevent: %s\ndata: %s\n\n", Watermark(ev.Epoch, ev.Seq), ev.Type, data)
	return err
}

// Watermark renders an (epoch, seq) resume position as the wire form used
// in SSE ids and Last-Event-ID headers: "<epoch>.<seq>".
func Watermark(epoch int64, seq int) string {
	return fmt.Sprintf("%d.%d", epoch, seq)
}

// parseWatermark inverts Watermark. A malformed or empty watermark parses
// as (0, 0) — indistinguishable from "no watermark", so a garbled header
// degrades to a fresh subscription rather than an error.
func parseWatermark(s string) (epoch int64, seq int) {
	var e int64
	var n int
	if _, err := fmt.Sscanf(s, "%d.%d", &e, &n); err != nil || e < 0 || n < 0 {
		return 0, 0
	}
	return e, n
}

// ParseSSE decodes a Server-Sent-Events stream of Events (the client-side
// inverse of writeSSE; also the test oracle). It reads frames until EOF
// and calls fn per event; fn returning false stops early without error.
func ParseSSE(r io.Reader, fn func(Event) bool) error {
	sc := newLineScanner(r)
	var data []byte
	flush := func() (bool, error) {
		if data == nil {
			return true, nil
		}
		var ev Event
		if err := json.Unmarshal(data, &ev); err != nil {
			return false, fmt.Errorf("serve: bad SSE data: %w", err)
		}
		data = nil
		return fn(ev), nil
	}
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case len(line) == 0: // frame boundary
			if cont, err := flush(); err != nil || !cont {
				return err
			}
		case len(line) > 6 && string(line[:6]) == "data: ":
			data = append([]byte(nil), line[6:]...)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	_, err := flush() // stream may end without a trailing blank line
	return err
}
