package stream

import (
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// DatasetSource streams a stored dataset (internal/dataset) segment by
// segment. It is the unified data plane's source: every runtime — batch
// (via Collect), stream, cluster, service — reads real graphs
// through it, and it is Restartable by construction, because restarting is
// just seeking back to segment zero. That makes cluster round replay and
// multi-round resharding work on graphs larger than RAM: no pass ever holds
// more than one decoded segment, and every segment is decoded into the same
// two buffers (encoded bytes, edges), so a pass allocates O(1) times.
//
// MaxResidentBytes, when set, is an enforced in-memory budget: a segment
// whose encoded size exceeds it fails the read rather than silently blowing
// the space bound. Tests use it to prove a dataset streams end to end while
// staying under a budget smaller than the dataset's total edge bytes.
type DatasetSource struct {
	// MaxResidentBytes caps the encoded size of a single resident segment.
	// Zero means unlimited. Exceeding it is an error, not a truncation.
	MaxResidentBytes int

	d       *dataset.Dataset
	seg     int          // next segment to decode
	cur     []graph.Edge // decoded edges of the current segment (array reused by the next)
	pos     int          // read position within cur
	scratch []byte       // reused encoded-segment buffer
	peak    int          // largest encoded segment held so far
}

// NewDatasetSource returns a source streaming d from its first segment. The
// dataset handle stays owned by the caller (sources are cheap; many can
// stream one dataset concurrently).
func NewDatasetSource(d *dataset.Dataset) *DatasetSource {
	return &DatasetSource{d: d}
}

// Dataset returns the underlying dataset handle.
func (s *DatasetSource) Dataset() *dataset.Dataset { return s.d }

// PeakResidentBytes reports the largest encoded segment this source has held
// at once — the number the MaxResidentBytes budget bounds.
func (s *DatasetSource) PeakResidentBytes() int { return s.peak }

func (s *DatasetSource) Next(buf []graph.Edge) (int, error) {
	for s.pos >= len(s.cur) {
		if s.seg >= s.d.Segments() {
			return 0, io.EOF
		}
		if s.MaxResidentBytes > 0 {
			if l := s.d.Manifest().Segments[s.seg].Length; l > s.MaxResidentBytes {
				return 0, fmt.Errorf("stream: dataset segment %d is %d encoded bytes, over the %d-byte resident budget",
					s.seg, l, s.MaxResidentBytes)
			}
		}
		var err error
		s.cur, s.scratch, err = s.d.ReadSegmentInto(s.seg, s.cur, s.scratch)
		if err != nil {
			return 0, err
		}
		if len(s.scratch) > s.peak {
			s.peak = len(s.scratch)
		}
		s.seg++
		s.pos = 0
	}
	c := copy(buf, s.cur[s.pos:])
	s.pos += c
	return c, nil
}

// NumVertices returns the manifest's vertex count, exact before any read.
func (s *DatasetSource) NumVertices() int { return s.d.NumVertices() }

// KnownUpfront is always true: the manifest records n.
func (s *DatasetSource) KnownUpfront() bool { return true }

// Restart seeks back to the first segment. It never fails: dataset segments
// are positioned reads, so rewinding is a pair of index resets — the
// property that makes every dataset-backed run replayable.
func (s *DatasetSource) Restart() error {
	s.seg, s.pos, s.cur = 0, 0, s.cur[:0]
	return nil
}
