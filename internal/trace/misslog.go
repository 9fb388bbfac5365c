package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"agilepaging/internal/perfmodel"
	"agilepaging/internal/telemetry"
)

// MissRecord is one TLB miss as BadgerTrap would observe it: the faulting
// address plus the walk's classification.
type MissRecord struct {
	VA             uint64
	Refs           uint16
	NestedLevels   uint8 // 0 = full shadow, 1..4 = trailing nested levels
	GptrTranslated bool  // full nested walk (paid the gptr translation)
	Write          bool
	// Retry marks a re-walk of the same logical access: a store that missed
	// and then hit a read-only entry re-walks after the write-protection
	// upgrade, so one access can log twice. The retry record is kept (it is
	// a real walk the hardware performed, and Table VI counts it) but
	// marked, so consumers can separate logical accesses from walks.
	Retry bool
}

// MissLog accumulates TLB-miss records.
type MissLog struct {
	Records []MissRecord
}

// Record appends one completed walk to the log; l.Record is a walk
// observer for cpu.Machine.SetWalkObserver.
func (l *MissLog) Record(ev telemetry.WalkEvent) {
	l.Records = append(l.Records, MissRecord{
		VA:             ev.VA,
		Refs:           uint16(ev.Refs),
		NestedLevels:   uint8(ev.NestedLevels),
		GptrTranslated: ev.FullNested,
		Write:          ev.Write,
		Retry:          ev.Retry,
	})
}

// MissSummary is the classification the paper's Table VI reports.
type MissSummary struct {
	Total uint64
	// ByClass is indexed by telemetry.WalkClass.
	ByClass [telemetry.NumWalkClasses]uint64
	SumRefs uint64
	// Writes and Retries count the records carrying those flags; they ride
	// alongside the Table VI classes (which count every walk, retries
	// included, as the paper's BadgerTrap step does).
	Writes  uint64
	Retries uint64
}

// Fraction returns ByClass[c] / Total.
func (s MissSummary) Fraction(c int) float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.ByClass[c]) / float64(s.Total)
}

// WriteFraction returns the share of misses caused by stores.
func (s MissSummary) WriteFraction() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Writes) / float64(s.Total)
}

// RetryFraction returns the share of records that are write-upgrade
// re-walks of an already-logged access.
func (s MissSummary) RetryFraction() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Retries) / float64(s.Total)
}

// AvgRefs is the average memory accesses per miss (Table VI last column).
func (s MissSummary) AvgRefs() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.SumRefs) / float64(s.Total)
}

// NestedFractions converts the summary into the perfmodel's F_Ni form:
// index i = fraction switching with the switch at level i (1 = top, which
// is NestedLevels == 4; 4 = leaf-only, NestedLevels == 1). Full-nested
// misses count toward F_N1 as the paper's most conservative class.
func (s MissSummary) NestedFractions() perfmodel.NestedFractions {
	var f perfmodel.NestedFractions
	if s.Total == 0 {
		return f
	}
	f[1] = s.Fraction(4) + s.Fraction(5) // switched at top level / fully nested
	f[2] = s.Fraction(3)
	f[3] = s.Fraction(2)
	f[4] = s.Fraction(1)
	return f
}

// Summary classifies the log.
func (l *MissLog) Summary() MissSummary {
	var s MissSummary
	for _, r := range l.Records {
		s.Total++
		s.SumRefs += uint64(r.Refs)
		if r.Write {
			s.Writes++
		}
		if r.Retry {
			s.Retries++
		}
		s.ByClass[telemetry.WalkClass(int(r.NestedLevels), r.GptrTranslated)]++
	}
	return s
}

// Save serializes the log.
func (l *MissLog) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := binary.Write(bw, binary.LittleEndian, missMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(l.Records))); err != nil {
		return err
	}
	for _, r := range l.Records {
		var flags uint8
		if r.GptrTranslated {
			flags |= 1
		}
		if r.Write {
			flags |= 2
		}
		if r.Retry {
			flags |= 4
		}
		rec := missRecord{VA: r.VA, Refs: r.Refs, Nested: r.NestedLevels, Flags: flags}
		if err := binary.Write(bw, binary.LittleEndian, rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

type missRecord struct {
	VA     uint64
	Refs   uint16
	Nested uint8
	Flags  uint8
	_      uint32
}

// LoadMissLog deserializes a log written by Save.
func LoadMissLog(r io.Reader) (*MissLog, error) {
	br := bufio.NewReader(r)
	var magic uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, err
	}
	if magic != missMagic {
		return nil, fmt.Errorf("%w: magic %#x", ErrBadFormat, magic)
	}
	var n uint64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	// The count is untrusted input: cap the pre-allocation and let append
	// grow the slice as records actually decode, so a forged header cannot
	// allocate unbounded memory (a truncated stream fails at the first
	// missing record instead).
	capHint := n
	if capHint > 1<<16 {
		capHint = 1 << 16
	}
	l := &MissLog{Records: make([]MissRecord, 0, capHint)}
	for i := uint64(0); i < n; i++ {
		var rec missRecord
		if err := binary.Read(br, binary.LittleEndian, &rec); err != nil {
			return nil, fmt.Errorf("trace: miss %d: %w", i, err)
		}
		l.Records = append(l.Records, MissRecord{
			VA: rec.VA, Refs: rec.Refs, NestedLevels: rec.Nested,
			GptrTranslated: rec.Flags&1 != 0, Write: rec.Flags&2 != 0,
			Retry: rec.Flags&4 != 0,
		})
	}
	return l, nil
}
