package core

import (
	"fmt"
	"math"
)

// Interval is a closed time interval in integer days since an arbitrary
// epoch (the synthetic world uses day 0 = 1900-01-01). A fact whose
// validity is unbounded on one side uses MinDay / MaxDay.
//
// Temporal scoping of facts — "inferring the timepoints of events and
// timespans during which certain facts hold" (§3) — attaches these
// intervals to facts via FactInfo.
type Interval struct {
	Begin, End int
}

// MinDay and MaxDay bound the representable timeline.
const (
	MinDay = math.MinInt32
	MaxDay = math.MaxInt32
)

// Always is the unbounded interval.
var Always = Interval{Begin: MinDay, End: MaxDay}

// Valid reports whether Begin <= End.
func (iv Interval) Valid() bool { return iv.Begin <= iv.End }

// Contains reports whether day d lies inside the interval.
func (iv Interval) Contains(d int) bool { return iv.Begin <= d && d <= iv.End }

// Overlaps reports whether two intervals share at least one day.
func (iv Interval) Overlaps(o Interval) bool {
	return iv.Begin <= o.End && o.Begin <= iv.End
}

// Union returns the smallest interval covering both.
func (iv Interval) Union(o Interval) Interval {
	return Interval{Begin: min(iv.Begin, o.Begin), End: max(iv.End, o.End)}
}

// Days returns the length of the interval in days (0 for invalid). The
// unbounded interval saturates at MaxDay.
func (iv Interval) Days() int {
	if !iv.Valid() {
		return 0
	}
	d := int64(iv.End) - int64(iv.Begin) + 1
	if d > int64(MaxDay) {
		return MaxDay
	}
	return int(d)
}

func (iv Interval) String() string {
	fmtDay := func(d int) string {
		switch d {
		case MinDay:
			return "-inf"
		case MaxDay:
			return "+inf"
		}
		return fmt.Sprintf("%d", d)
	}
	return "[" + fmtDay(iv.Begin) + "," + fmtDay(iv.End) + "]"
}

// FactInfo carries the per-fact metadata that distinguishes a curated KB
// from a raw triple set: extraction confidence, provenance, and temporal
// scope (§2/§3 of the tutorial).
type FactInfo struct {
	// Confidence in [0,1]; 1 for ground-truth or manually curated facts.
	Confidence float64
	// Source names where the fact came from (an article ID, an extractor
	// name, an infobox key, ...).
	Source string
	// Time is the validity interval of the fact; Always if unscoped.
	Time Interval
}

// SetInfo attaches metadata to a fact. Unknown fact IDs are
// ignored (reported via the return value). For bulk assertion with
// metadata, prefer AddBatchMeta, which applies the metadata in the same
// fact-log critical section as the insert.
func (st *Store) SetInfo(id FactID, info FactInfo) bool {
	return st.log.setInfo(id, info)
}

// Info returns the metadata of a fact. Facts without explicit metadata
// report confidence 1 and the Always interval.
func (st *Store) Info(id FactID) (FactInfo, bool) {
	return st.log.info(id)
}
