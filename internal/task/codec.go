package task

import (
	"encoding/binary"
	"fmt"
)

// AppendSummary encodes a machine's end-of-stream summary as the CORESET
// payload for task d: uvarint received/stored/live stats, then the
// descriptor's coreset body.
func AppendSummary(dst []byte, d *Descriptor, s Summary) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.Edges))
	dst = binary.AppendUvarint(dst, uint64(s.Stored))
	dst = binary.AppendUvarint(dst, uint64(s.Live))
	return d.AppendBody(dst, s)
}

// DecodeSummary reconstructs a Summary from a CORESET payload. The result
// is field-for-field identical to what the emitting machine's Finish
// returned — including nil-versus-empty slice shapes, which the seed-parity
// guarantee (cluster coresets deep-equal in-process ones) depends on — and
// strict: a truncated field or trailing garbage is an error.
func DecodeSummary(d *Descriptor, data []byte) (Summary, error) {
	var s Summary
	var vals [3]uint64
	for i := range vals {
		v, k := binary.Uvarint(data)
		if k <= 0 {
			return s, fmt.Errorf("task %s: corrupt CORESET stats", d.Name)
		}
		vals[i], data = v, data[k:]
	}
	s.Edges, s.Stored, s.Live = int(vals[0]), int(vals[1]), int(vals[2])
	rest, err := d.DecodeBody(&s, data)
	if err != nil {
		return s, err
	}
	if len(rest) != 0 {
		return s, fmt.Errorf("task %s: %d trailing bytes after CORESET", d.Name, len(rest))
	}
	return s, nil
}
