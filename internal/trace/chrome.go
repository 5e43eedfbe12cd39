package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// The Chrome trace_event format ("JSON Object Format" variant): a
// top-level object whose traceEvents array holds complete spans
// (ph "X", microsecond timestamps) plus metadata records (ph "M")
// naming one thread per rank. Perfetto and chrome://tracing open
// these files directly and nest overlapping spans on each track.

// Reserved arg keys carrying span identity through the Chrome export.
const (
	argSpanID     = "span_id"
	argSpanParent = "span_parent"
	argTraceID    = "trace_id"
)

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit,omitempty"`
	// Dropped preserves the ring-overflow count across a round trip.
	Dropped int64 `json:"dropped,omitempty"`
}

// usOf converts a duration to trace_event microseconds.
func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// durOf converts trace_event microseconds back to a duration.
func durOf(us float64) time.Duration { return time.Duration(math.Round(us * 1e3)) }

// WriteChrome writes the trace in Chrome trace_event JSON. One
// metadata record per rank names its track "rank N" and pins the
// track order to the rank order.
func (t *Trace) WriteChrome(w io.Writer) error {
	f := chromeFile{DisplayTimeUnit: "ms", Dropped: t.Dropped}
	f.TraceEvents = make([]chromeEvent, 0, len(t.Events)+2*t.Ranks)
	for r := 0; r < t.Ranks; r++ {
		f.TraceEvents = append(f.TraceEvents,
			chromeEvent{Name: "thread_name", Ph: "M", Tid: r,
				Args: map[string]any{"name": fmt.Sprintf("rank %d", r)}},
			chromeEvent{Name: "thread_sort_index", Ph: "M", Tid: r,
				Args: map[string]any{"sort_index": r}},
		)
	}
	for _, e := range t.Events {
		ce := chromeEvent{
			Name: e.Name,
			Cat:  e.Cat,
			Ph:   "X",
			Ts:   usOf(e.Start),
			Dur:  usOf(e.Dur),
			Tid:  e.Rank,
		}
		if e.ArgName != "" || e.ID != 0 || e.Parent != 0 || e.TraceID != 0 {
			ce.Args = map[string]any{}
			if e.ArgName != "" {
				ce.Args[e.ArgName] = e.Arg
			}
			// Span identity rides along as hex-string args (JSON
			// numbers lose precision above 2^53) so Perfetto shows the
			// causal chain and ParseChrome can restore it.
			if e.ID != 0 {
				ce.Args[argSpanID] = fmt.Sprintf("%016x", e.ID)
			}
			if e.Parent != 0 {
				ce.Args[argSpanParent] = fmt.Sprintf("%016x", e.Parent)
			}
			if e.TraceID != 0 {
				ce.Args[argTraceID] = fmt.Sprintf("%016x", e.TraceID)
			}
		}
		f.TraceEvents = append(f.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// WriteChromeFile writes the Chrome trace_event JSON to path.
func (t *Trace) WriteChromeFile(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChrome(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// ParseChrome reads a trace written by WriteChrome back into a Trace.
// Metadata records are consumed for the rank count; durations are
// restored to nanosecond precision.
func ParseChrome(r io.Reader) (*Trace, error) {
	var f chromeFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("trace: parsing chrome trace: %w", err)
	}
	t := &Trace{Dropped: f.Dropped}
	for _, ce := range f.TraceEvents {
		if ce.Tid+1 > t.Ranks {
			t.Ranks = ce.Tid + 1
		}
		if ce.Ph != "X" {
			continue
		}
		e := Event{
			Rank:  ce.Tid,
			Cat:   ce.Cat,
			Name:  ce.Name,
			Start: durOf(ce.Ts),
			Dur:   durOf(ce.Dur),
		}
		for k, v := range ce.Args {
			switch k {
			case argSpanID, argSpanParent, argTraceID:
				s, ok := v.(string)
				if !ok {
					return nil, fmt.Errorf("trace: event %q arg %q is %T, want hex string", ce.Name, k, v)
				}
				var id uint64
				if _, err := fmt.Sscanf(s, "%16x", &id); err != nil {
					return nil, fmt.Errorf("trace: event %q arg %q: %w", ce.Name, k, err)
				}
				switch k {
				case argSpanID:
					e.ID = id
				case argSpanParent:
					e.Parent = id
				case argTraceID:
					e.TraceID = id
				}
			default:
				n, ok := v.(float64)
				if !ok {
					return nil, fmt.Errorf("trace: event %q arg %q is %T, want number", ce.Name, k, v)
				}
				e.ArgName, e.Arg = k, int64(n)
			}
		}
		t.Events = append(t.Events, e)
	}
	return t, nil
}
