package obs

import (
	"strconv"
	"strings"

	"dilos/internal/sim"
)

// Attr is one key/value attribute of a journal event. Values are either
// integers or strings; the distinction is preserved in the JSON output.
type Attr struct {
	Key   string
	Val   int64
	Str   string
	isStr bool
}

// I makes an integer attribute.
func I(key string, v int64) Attr { return Attr{Key: key, Val: v} }

// S makes a string attribute.
func S(key, v string) Attr { return Attr{Key: key, Str: v, isStr: true} }

// Event is one control-plane event: a timestamp, a type, and ordered
// attributes. Serialisation preserves emission order of the attributes,
// so the JSONL output is byte-deterministic — no map iteration anywhere.
type Event struct {
	At    sim.Time
	Type  string
	Attrs []Attr
}

// DefaultJournalCap bounds the in-memory event ring. Control-plane events
// are rare (drains, failovers, breaker trips, rebalances, steals, alert
// edges); 64k of them is hours of simulated trouble.
const DefaultJournalCap = 1 << 16

// Journal is a bounded drop-oldest ring of control-plane events. Like
// the rest of the plane it is unsynchronised; every writer runs inside
// the single-threaded simulation (memnoded serialises around it).
type Journal struct {
	events  []Event
	start   int
	cap     int
	dropped int64
}

// NewJournal creates a journal holding up to capacity events
// (DefaultJournalCap if capacity <= 0).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCap
	}
	return &Journal{cap: capacity}
}

// Emit appends one event, overwriting the oldest when full.
func (j *Journal) Emit(at sim.Time, typ string, attrs ...Attr) {
	e := Event{At: at, Type: typ, Attrs: attrs}
	if len(j.events) < j.cap {
		j.events = append(j.events, e)
		return
	}
	j.events[j.start] = e
	j.start++
	if j.start == len(j.events) {
		j.start = 0
	}
	j.dropped++
}

// Len returns the number of buffered events.
func (j *Journal) Len() int { return len(j.events) }

// Events returns the buffered events oldest-first.
func (j *Journal) Events() []Event {
	out := make([]Event, 0, len(j.events))
	out = append(out, j.events[j.start:]...)
	out = append(out, j.events[:j.start]...)
	return out
}

// appendJSONString appends a quoted, escaped JSON string.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '\t':
			dst = append(dst, '\\', 't')
		case c < 0x20:
			dst = append(dst, `\u00`...)
			const hex = "0123456789abcdef"
			dst = append(dst, hex[c>>4], hex[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// AppendJSON renders the event as one JSON object (no trailing newline):
// {"at_ns":N,"type":"T",...attrs in order...}.
func (e Event) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"at_ns":`...)
	dst = strconv.AppendInt(dst, int64(e.At), 10)
	dst = append(dst, `,"type":`...)
	dst = appendJSONString(dst, e.Type)
	for _, a := range e.Attrs {
		dst = append(dst, ',')
		dst = appendJSONString(dst, a.Key)
		dst = append(dst, ':')
		if a.isStr {
			dst = appendJSONString(dst, a.Str)
		} else {
			dst = strconv.AppendInt(dst, a.Val, 10)
		}
	}
	return append(dst, '}')
}

// AppendJSONL renders the whole journal as JSON lines, oldest first.
func (j *Journal) AppendJSONL(dst []byte) []byte {
	n := len(j.events)
	for k := 0; k < n; k++ {
		e := j.events[(j.start+k)%n]
		dst = e.AppendJSON(dst)
		dst = append(dst, '\n')
	}
	return dst
}

// String renders the event human-readably: "12.3us type k=v k=v".
func (e Event) String() string {
	var b strings.Builder
	b.WriteString(e.At.String())
	b.WriteByte(' ')
	b.WriteString(e.Type)
	for _, a := range e.Attrs {
		b.WriteByte(' ')
		b.WriteString(a.Key)
		b.WriteByte('=')
		if a.isStr {
			b.WriteString(a.Str)
		} else {
			b.WriteString(strconv.FormatInt(a.Val, 10))
		}
	}
	return b.String()
}
