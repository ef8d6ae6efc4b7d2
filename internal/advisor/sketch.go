package advisor

// ndvSketch is the lightweight per-attribute distinct-value sketch the
// advisor uses for both directions of tuple-bee tiering: an attribute
// whose observed NDV stays below ndvMax is a promotion candidate
// (dictionary-encode it), and a specialized attribute whose NDV climbs
// past driftNDV is drifting toward the hard MaxDictValues limit
// and must be despecialized before inserts start failing.
//
// The sketch stores value hashes in a bounded set: exact up to the
// bound, saturating above it. That is all the advisor needs — it only
// compares NDV against two small thresholds, so a saturated sketch
// ("more than bound distinct values") is as informative as an exact
// count would be.
type ndvSketch struct {
	rows      int64
	seen      map[uint64]struct{}
	saturated bool
}

// sketchBound caps per-attribute sketch memory. It only needs to exceed
// the largest threshold the advisor compares against (driftNDV).
const sketchBound = 512

func (s *ndvSketch) add(h uint64) {
	s.rows++
	if s.saturated {
		return
	}
	if s.seen == nil {
		s.seen = make(map[uint64]struct{}, 8)
	}
	s.seen[h] = struct{}{}
	if len(s.seen) > sketchBound {
		s.saturated = true
		s.seen = nil // the count no longer matters, release the memory
	}
}

// ndv returns the observed distinct-value estimate; a saturated sketch
// reports sketchBound+1 ("too many").
func (s *ndvSketch) ndv() int {
	if s.saturated {
		return sketchBound + 1
	}
	return len(s.seen)
}
