package trace

import (
	"encoding/json"
	"io"
)

// eventJSON is the JSON Lines wire form of an Event.
type eventJSON struct {
	AtNs    int64  `json:"at_ns"`
	Kind    string `json:"kind"`
	Proc    string `json:"proc"`
	Channel int    `json:"channel"`
	Bytes   int    `json:"bytes"`
	Xfer    int64  `json:"xfer,omitempty"`
}

// WriteJSONL emits the event timeline as JSON Lines (one event object per
// line), the scripting-friendly counterpart of the human-readable
// timeline.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for d := r.events.reader(); d.more(); {
		ev := d.event(&r.labels)
		if err := enc.Encode(eventJSON{
			AtNs: int64(ev.At), Kind: ev.Kind.String(), Proc: ev.Proc,
			Channel: ev.Channel, Bytes: ev.Bytes, Xfer: ev.Xfer,
		}); err != nil {
			return err
		}
	}
	return nil
}
