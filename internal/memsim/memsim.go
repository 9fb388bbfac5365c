// Package memsim models the host physical memory of the simulated machine.
//
// Physical memory is divided into 4 KiB frames. Frames are allocated from a
// simple bump-plus-freelist allocator. Frames that hold page-table pages have
// their 512 eight-byte entries materialized so the hardware walk state
// machines (package walker) and the software page-table code (package
// pagetable) can read and write individual entries; data frames carry no
// content, only identity, because the simulator accounts for translation
// behaviour rather than data values.
//
// The backing structures are dense and pointer-free: allocation state lives
// in a bitmap, and table pages live in a pooled arena addressed through an
// int32 frame-number index, both grown lazily to the allocation high-water
// mark. ReadEntry/WriteEntry — executed once per simulated page-walk memory
// reference, the currency of the paper's evaluation — are therefore a few
// bounds-checked array indexes with no hashing and no allocation, and none
// of the backing arrays contain pointers the garbage collector would have
// to scan. See DESIGN.md "Performance engineering".
package memsim

import (
	"errors"
	"fmt"
)

const (
	// FrameSize is the size of a physical frame in bytes.
	FrameSize = 4096
	// FrameShift is log2(FrameSize).
	FrameShift = 12
	// EntriesPerTable is the number of 8-byte entries in one page-table page.
	EntriesPerTable = 512
)

// Frame identifies a physical frame by its frame number (physical address
// right-shifted by FrameShift).
type Frame uint64

// Addr returns the base physical address of the frame.
func (f Frame) Addr() uint64 { return uint64(f) << FrameShift }

// FrameOf returns the frame containing physical address pa.
func FrameOf(pa uint64) Frame { return Frame(pa >> FrameShift) }

// ErrOutOfMemory is returned when the physical memory is exhausted.
var ErrOutOfMemory = errors.New("memsim: out of physical memory")

// Memory is a simulated bank of host physical memory.
//
// The zero value is not usable; create instances with New.
type Memory struct {
	totalFrames uint64
	nextFrame   Frame
	freeList    []Frame
	// tableIdx[f] is 1 + the pool slot of the materialized page-table page
	// in frame f, or 0 for data and unallocated frames. Sized lazily to the
	// allocation high-water mark; int32 slots keep it compact and free of
	// pointers, so the garbage collector never scans it.
	tableIdx []int32
	// pool is the arena of materialized table pages; slots freed when a
	// table frame is released are recycled through poolFree. The element
	// type carries no pointers, so the backing array is invisible to the
	// garbage collector.
	pool     [][EntriesPerTable]uint64
	poolFree []int32
	// allocated is a bitmap over frame numbers (bit f of word f/64), sized
	// lazily like tableIdx.
	allocated  []uint64
	allocCount int
}

// New creates a Memory holding the given number of bytes, rounded down to a
// whole number of frames. Frame 0 is reserved (a zero frame number means
// "no frame" throughout the simulator).
func New(bytes uint64) *Memory {
	frames := bytes / FrameSize
	if frames < 2 {
		frames = 2
	}
	return &Memory{
		totalFrames: frames,
		nextFrame:   1, // frame 0 reserved as the nil frame
	}
}

// grow extends the frame-indexed structures to cover frame f. The bump
// allocator hands out frames in increasing order, so doubling amortizes the
// copies; both slices are capped at the configured frame count.
func (m *Memory) grow(f Frame) {
	if need := uint64(f) + 1; uint64(len(m.tableIdx)) < need {
		n := 2 * uint64(cap(m.tableIdx))
		if n < need {
			n = need
		}
		if n < 1024 {
			n = 1024
		}
		if n > m.totalFrames {
			n = m.totalFrames
		}
		ti := make([]int32, n)
		copy(ti, m.tableIdx)
		m.tableIdx = ti
	}
	if words := (uint64(f) >> 6) + 1; uint64(len(m.allocated)) < words {
		n := 2 * uint64(cap(m.allocated))
		if n < words {
			n = words
		}
		if max := (m.totalFrames + 63) / 64; n > max {
			n = max
		}
		al := make([]uint64, n)
		copy(al, m.allocated)
		m.allocated = al
	}
}

// isAllocated reports whether frame f is currently allocated.
func (m *Memory) isAllocated(f Frame) bool {
	w := uint64(f) >> 6
	if uint64(f) >= m.totalFrames || w >= uint64(len(m.allocated)) {
		return false
	}
	return m.allocated[w]&(1<<(f&63)) != 0
}

// setAllocated marks frame f allocated.
func (m *Memory) setAllocated(f Frame) {
	m.grow(f)
	m.allocated[f>>6] |= 1 << (f & 63)
	m.allocCount++
}

// clearAllocated marks frame f free.
func (m *Memory) clearAllocated(f Frame) {
	m.allocated[f>>6] &^= 1 << (f & 63)
	m.allocCount--
}

// AllocatedFrames reports the number of currently allocated frames.
func (m *Memory) AllocatedFrames() int { return m.allocCount }

// AllocFrame allocates one data frame.
func (m *Memory) AllocFrame() (Frame, error) {
	if n := len(m.freeList); n > 0 {
		f := m.freeList[n-1]
		m.freeList = m.freeList[:n-1]
		m.setAllocated(f)
		return f, nil
	}
	if uint64(m.nextFrame) >= m.totalFrames {
		return 0, ErrOutOfMemory
	}
	f := m.nextFrame
	m.nextFrame++
	m.setAllocated(f)
	return f, nil
}

// AllocContiguous allocates n physically contiguous frames and returns the
// first. Contiguity only matters for large-page backing; the allocator
// satisfies it from the bump pointer, never the free list.
func (m *Memory) AllocContiguous(n int) (Frame, error) {
	if n <= 0 {
		return 0, fmt.Errorf("memsim: invalid contiguous allocation of %d frames", n)
	}
	if uint64(m.nextFrame)+uint64(n) > m.totalFrames {
		return 0, ErrOutOfMemory
	}
	first := m.nextFrame
	for i := 0; i < n; i++ {
		m.setAllocated(m.nextFrame)
		m.nextFrame++
	}
	return first, nil
}

// AllocContiguousAligned allocates n physically contiguous frames whose
// first frame number is a multiple of alignFrames, as large-page backing
// requires. Frames skipped for alignment are returned to the free list.
func (m *Memory) AllocContiguousAligned(n, alignFrames int) (Frame, error) {
	if alignFrames <= 1 {
		return m.AllocContiguous(n)
	}
	a := uint64(alignFrames)
	start := (uint64(m.nextFrame) + a - 1) / a * a
	if start+uint64(n) > m.totalFrames {
		return 0, ErrOutOfMemory
	}
	for f := m.nextFrame; uint64(f) < start; f++ {
		m.freeList = append(m.freeList, f)
	}
	m.nextFrame = Frame(start)
	return m.AllocContiguous(n)
}

// materialize installs a zeroed table page for the (already allocated,
// already covered by tableIdx) frame f, recycling a pooled page when one is
// free.
func (m *Memory) materialize(f Frame) {
	var slot int32
	if n := len(m.poolFree); n > 0 {
		slot = m.poolFree[n-1]
		m.poolFree = m.poolFree[:n-1]
		m.pool[slot] = [EntriesPerTable]uint64{}
	} else {
		m.pool = append(m.pool, [EntriesPerTable]uint64{})
		slot = int32(len(m.pool) - 1)
	}
	m.tableIdx[f] = slot + 1
}

// AllocTable allocates a frame and materializes it as a zeroed page-table
// page.
func (m *Memory) AllocTable() (Frame, error) {
	f, err := m.AllocFrame()
	if err != nil {
		return 0, err
	}
	m.materialize(f)
	return f, nil
}

// MaterializeTable converts an already-allocated data frame into a zeroed
// page-table page. The VMM uses this when a guest OS repurposes a page of
// its (pre-backed) RAM as a page-table page. Materializing a frame that is
// already a table is a no-op.
func (m *Memory) MaterializeTable(f Frame) error {
	if !m.isAllocated(f) {
		return fmt.Errorf("memsim: materialize of unallocated frame %#x", uint64(f))
	}
	if m.tableIdx[f] == 0 {
		m.materialize(f)
	}
	return nil
}

// FreeFrame returns a frame to the allocator. Freeing the nil frame or an
// unallocated frame is an error.
func (m *Memory) FreeFrame(f Frame) error {
	if f == 0 {
		return errors.New("memsim: free of nil frame")
	}
	if !m.isAllocated(f) {
		return fmt.Errorf("memsim: double free of frame %#x", uint64(f))
	}
	m.clearAllocated(f)
	if ti := m.tableIdx[f]; ti != 0 {
		m.poolFree = append(m.poolFree, ti-1)
		m.tableIdx[f] = 0
	}
	m.freeList = append(m.freeList, f)
	return nil
}

// IsTable reports whether frame f holds a materialized page-table page.
func (m *Memory) IsTable(f Frame) bool {
	return uint64(f) < uint64(len(m.tableIdx)) && m.tableIdx[f] != 0
}

// ReadEntry reads entry idx of the page-table page in frame f.
// It panics if f is not a table frame or idx is out of range: the hardware
// walker only ever dereferences pointers the simulator itself installed, so
// a violation is a simulator bug, not a guest error.
func (m *Memory) ReadEntry(f Frame, idx int) uint64 {
	if uint64(f) >= uint64(len(m.tableIdx)) || m.tableIdx[f] == 0 {
		panic(fmt.Sprintf("memsim: read of non-table frame %#x", uint64(f)))
	}
	return m.pool[m.tableIdx[f]-1][idx]
}

// WriteEntry writes entry idx of the page-table page in frame f.
func (m *Memory) WriteEntry(f Frame, idx int, val uint64) {
	if uint64(f) >= uint64(len(m.tableIdx)) || m.tableIdx[f] == 0 {
		panic(fmt.Sprintf("memsim: write of non-table frame %#x", uint64(f)))
	}
	m.pool[m.tableIdx[f]-1][idx] = val
}

// ZeroTable clears every entry of the page-table page in frame f — the OS
// zeroing a page before linking it into a page table. Frames freed while
// still holding entries would otherwise resurface with stale contents when
// the allocator recycles them.
func (m *Memory) ZeroTable(f Frame) {
	if uint64(f) >= uint64(len(m.tableIdx)) || m.tableIdx[f] == 0 {
		panic(fmt.Sprintf("memsim: zero of non-table frame %#x", uint64(f)))
	}
	m.pool[m.tableIdx[f]-1] = [EntriesPerTable]uint64{}
}

// Reset returns the memory to its pristine post-New state without
// releasing any backing capacity: every frame is freed, the bump pointer
// restarts at frame 1, and all arena slots become available for recycling.
// Because allocation order after Reset replays exactly as after New (bump
// from frame 1, empty free list), a reset machine hands out identical frame
// numbers to an identical request sequence — the property the Reset-vs-
// fresh equivalence suite pins.
func (m *Memory) Reset() {
	m.nextFrame = 1
	m.freeList = m.freeList[:0]
	clear(m.tableIdx)
	clear(m.allocated)
	m.allocCount = 0
	m.poolFree = m.poolFree[:0]
	for i := range m.pool {
		m.poolFree = append(m.poolFree, int32(i))
	}
}

// TableSnapshot returns a copy of the 512 entries of table frame f, for
// tests and debugging.
func (m *Memory) TableSnapshot(f Frame) [EntriesPerTable]uint64 {
	if uint64(f) >= uint64(len(m.tableIdx)) || m.tableIdx[f] == 0 {
		panic(fmt.Sprintf("memsim: snapshot of non-table frame %#x", uint64(f)))
	}
	return m.pool[m.tableIdx[f]-1]
}
