package telemetry

import (
	"encoding/json"
	"io"
)

// WalkEvent is one completed hardware page walk, as the machine's walk
// observer sees it: the bounded ring keeps the last few for
// flamegraph-style inspection of where walk cycles go, and the TLB-miss
// log (the paper's BadgerTrap step) keeps a compact record of each. The
// struct is flat so recording is a single array-slot copy.
type WalkEvent struct {
	Seq          uint64 // 0-based index in the run's walk order (set by EventRing)
	Clock        uint64 // simulated cycle at walk completion
	Core         int
	VA           uint64
	HPA          uint64 // host-physical address the walk translated VA to
	Refs         int
	HostRefs     int
	NestedLevels int  // trailing guest levels handled nested (0..4)
	FullNested   bool // walk also translated gptr (fully nested)
	Write        bool
	// Retry marks a re-walk of the same logical access: a store that
	// missed and then hit a read-only entry re-walks after the
	// write-protection upgrade, so one access can produce two events.
	Retry  bool
	Cycles uint64 // cycles charged for the walk's references
}

// NumWalkClasses is the number of Table VI walk classes.
const NumWalkClasses = 6

// WalkClass returns a walk's Table VI class: 0 = full shadow, 1..4 = a
// switch with that many trailing nested levels (the paper's L4..L1
// columns), 5 = full nested.
func WalkClass(nestedLevels int, fullNested bool) int {
	switch {
	case fullNested:
		return 5
	case nestedLevels <= 0:
		return 0
	case nestedLevels > 4:
		return 4
	default:
		return nestedLevels
	}
}

// walkClassNames are the Chrome-trace categories of the WalkClass classes.
var walkClassNames = [NumWalkClasses]string{
	"full-shadow", "switch-L4", "switch-L3", "switch-L2", "switch-L1", "full-nested",
}

// EventRing is a bounded ring buffer of walk events. The buffer is
// allocated once at construction; Record overwrites the oldest event when
// full, so attaching a ring adds no allocation to the walk path.
type EventRing struct {
	buf []WalkEvent
	n   uint64 // total events ever recorded
}

// NewEventRing creates a ring holding the last `capacity` walk events
// (non-positive selects 4096).
func NewEventRing(capacity int) *EventRing {
	if capacity <= 0 {
		capacity = 4096
	}
	return &EventRing{buf: make([]WalkEvent, capacity)}
}

// Record appends one event, overwriting the oldest when the ring is full.
// ev.Seq is assigned by the ring.
func (r *EventRing) Record(ev WalkEvent) {
	ev.Seq = r.n
	r.buf[r.n%uint64(len(r.buf))] = ev
	r.n++
}

// Cap returns the ring capacity.
func (r *EventRing) Cap() int { return len(r.buf) }

// Total returns the number of events ever recorded (may exceed Cap).
func (r *EventRing) Total() uint64 { return r.n }

// Events returns the retained events oldest-first as a fresh slice.
func (r *EventRing) Events() []WalkEvent {
	kept := r.n
	if kept > uint64(len(r.buf)) {
		kept = uint64(len(r.buf))
	}
	out := make([]WalkEvent, 0, kept)
	start := r.n - kept
	for i := start; i < r.n; i++ {
		out = append(out, r.buf[i%uint64(len(r.buf))])
	}
	return out
}

// chromeEvent is one entry of the Chrome trace-event format ("X" complete
// events), loadable in chrome://tracing and Perfetto. Simulated cycles map
// 1:1 onto the format's microsecond timestamps.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   uint64            `json:"ts"`
	Dur  uint64            `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]uint64 `json:"args"`
}

// WriteChromeTrace exports the retained events as a Chrome trace-event
// JSON array. Each walk becomes a complete ("X") event on its core's
// track, with the walk's start inferred from its completion clock and
// charged cycles.
func (r *EventRing) WriteChromeTrace(w io.Writer) error {
	events := r.Events()
	out := make([]chromeEvent, 0, len(events))
	for _, ev := range events {
		start := ev.Clock - ev.Cycles
		var write uint64
		if ev.Write {
			write = 1
		}
		out = append(out, chromeEvent{
			Name: "walk",
			Cat:  walkClassNames[WalkClass(ev.NestedLevels, ev.FullNested)],
			Ph:   "X",
			Ts:   start,
			Dur:  ev.Cycles,
			Pid:  1,
			Tid:  ev.Core + 1,
			Args: map[string]uint64{
				"seq":          ev.Seq,
				"va":           ev.VA,
				"refs":         uint64(ev.Refs),
				"hostRefs":     uint64(ev.HostRefs),
				"nestedLevels": uint64(ev.NestedLevels),
				"write":        write,
			},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteChromeTraceFile writes the WriteChromeTrace export to path.
func (r *EventRing) WriteChromeTraceFile(path string) error {
	return writeFile(path, r.WriteChromeTrace)
}
