// Package trace records and replays the two artifact streams of the
// paper's evaluation methodology (§VI):
//
//   - Step 1 (trace-cmd + instrumented KVM): a log of VMM interventions by
//     type, from which the fraction of traps agile paging eliminates (F_Vi)
//     is derived.
//   - Step 2 (BadgerTrap): a log of TLB misses with their per-miss walk
//     classification, from which the fraction of misses served at each
//     agile switch level (F_Ni, paper Table VI) is derived.
//
// It also serializes workload op streams so runs can be captured once and
// replayed bit-identically across configurations (cmd/tracegen).
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"agilepaging/internal/pagetable"
	"agilepaging/internal/workload"
)

const (
	opMagic   = uint32(0x41504f31) // "APO1"
	missMagic = uint32(0x41504d31) // "APM1"
)

// ErrBadFormat reports a corrupt or foreign trace file.
var ErrBadFormat = errors.New("trace: bad file format")

// WriteOps serializes an op stream.
func WriteOps(w io.Writer, ops []workload.Op) error {
	bw := bufio.NewWriter(w)
	if err := binary.Write(bw, binary.LittleEndian, opMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(ops))); err != nil {
		return err
	}
	for _, op := range ops {
		rec := opRecord{
			Kind: uint8(op.Kind), PID: int32(op.PID), VA: op.VA, Len: op.Len,
			Size: uint8(op.Size), N: int32(op.N), Core: int32(op.Core),
		}
		if op.Write {
			rec.Flags |= 1
		}
		if op.Fetch {
			rec.Flags |= 2
		}
		if err := binary.Write(bw, binary.LittleEndian, rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

type opRecord struct {
	Kind  uint8
	Size  uint8
	Flags uint8
	_     uint8
	PID   int32
	VA    uint64
	Len   uint64
	N     int32
	Core  int32
}

// ReadOps deserializes an op stream written by WriteOps.
func ReadOps(r io.Reader) ([]workload.Op, error) {
	br := bufio.NewReader(r)
	var magic uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, err
	}
	if magic != opMagic {
		return nil, fmt.Errorf("%w: magic %#x", ErrBadFormat, magic)
	}
	var n uint64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	const maxOps = 1 << 30
	if n > maxOps {
		return nil, fmt.Errorf("%w: unreasonable op count %d", ErrBadFormat, n)
	}
	// Cap the pre-allocation: the count is untrusted, so grow incrementally
	// and let a truncated stream fail at the first missing record.
	capHint := n
	if capHint > 1<<16 {
		capHint = 1 << 16
	}
	ops := make([]workload.Op, 0, capHint)
	for i := uint64(0); i < n; i++ {
		var rec opRecord
		if err := binary.Read(br, binary.LittleEndian, &rec); err != nil {
			return nil, fmt.Errorf("trace: op %d: %w", i, err)
		}
		ops = append(ops, workload.Op{
			Kind: workload.OpKind(rec.Kind), PID: int(rec.PID), VA: rec.VA,
			Len: rec.Len, Size: pagetable.Size(rec.Size), Write: rec.Flags&1 != 0,
			N: int(rec.N), Core: int(rec.Core), Fetch: rec.Flags&2 != 0,
		})
	}
	return ops, nil
}
