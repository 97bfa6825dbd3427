package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"spthreads/internal/vtime"
)

// This file reads traces back from the JSONL wire format written by
// WriteJSONL, so pttrace -in can work from a recorded file instead of
// a live run.

// ParseKind maps a kind name (the Kind.String form) back to its Kind.
func ParseKind(name string) (Kind, error) {
	for k := KindCreate; k <= KindSteal; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown event kind %q", name)
}

// ReadJSONL parses a JSONL event stream (one object per line, as written
// by WriteJSONL) into a fresh Recorder. An optional first line may be a
// header object declaring the stream's time unit; headerless streams
// (written before the native backend existed) are virtual cycles. A
// malformed or truncated line is an error — a partial trace would
// silently skew every analysis built on it. Blank lines are permitted.
// An empty stream yields an empty recorder; callers decide whether that
// is acceptable.
func ReadJSONL(r io.Reader) (*Recorder, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	rec := &Recorder{cap: 1 << 62}
	line := 0
	sawEvent := false
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var je jsonlEvent
		if err := json.Unmarshal(raw, &je); err != nil {
			return nil, fmt.Errorf("trace: line %d: malformed or truncated event: %w", line, err)
		}
		if !sawEvent && je.Kind == "" {
			// Possible header line ({"unit":...}) before any event.
			var h jsonlHeader
			if err := json.Unmarshal(raw, &h); err == nil && h.Unit != "" {
				u, err := ParseTimeUnit(h.Unit)
				if err != nil {
					return nil, fmt.Errorf("trace: line %d: %w", line, err)
				}
				rec.unit = u
				sawEvent = true // at most one header, and only first
				continue
			}
		}
		sawEvent = true
		k, err := ParseKind(je.Kind)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		rec.events = append(rec.events, Event{
			At:     vtime.Time(je.TS),
			Proc:   je.Proc,
			Thread: je.Thread,
			Kind:   k,
			Arg:    je.Arg,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: line %d: %w", line, err)
	}
	return rec, nil
}
