package workload

import (
	"agilepaging/internal/memo"
	"agilepaging/internal/pagetable"
)

// Stream is one generated workload op stream, stored packed (see
// packed.go) and shared freely across concurrent runs. Every technique of
// a Compare or Figure 5 sweep replays the same (profile, page size,
// accesses, seed) stream, so generating it once removes the per-run RNG
// and FIFO cost that used to be paid N×M times (N techniques × M sweep
// cells).
//
// Generation is pipelined: SharedStream returns immediately and the
// stream's chunks are published as they are encoded, so a Reader can start
// replaying the head of the stream while the tail is still generating.
// Late arrivals attach to the already-published chunks. Methods that need
// stream totals (Len, PackedBytes, Ops) block until generation completes.
//
// Concurrency contract: all methods are safe for concurrent use, but each
// consumer must take its own Reader.
type Stream struct {
	name string
	ps   *packedStream
}

// Name identifies the workload the stream was generated from.
func (s *Stream) Name() string { return s.name }

// Reader returns a fresh chunk cursor over the stream. The caller should
// Close it when done to recycle its decode buffer.
func (s *Stream) Reader() *StreamReader { return &StreamReader{ps: s.ps} }

// Len reports the total op count, blocking until generation completes.
func (s *Stream) Len() int {
	s.ps.waitDone()
	return s.ps.numOps
}

// PackedBytes reports the encoded in-memory footprint of the stream's
// chunks (the quantity the cache budget is charged with), blocking until
// generation completes.
func (s *Stream) PackedBytes() int64 {
	s.ps.waitDone()
	return s.ps.bytes
}

// Ops decodes the full op list into a fresh slice. It exists for tests and
// offline tooling: replay paths should consume chunks through Reader,
// which never materializes the 64-byte-per-op form.
func (s *Stream) Ops() []Op {
	s.ps.waitDone()
	out := make([]Op, 0, s.ps.numOps)
	r := s.Reader()
	defer r.Close()
	for {
		ops, ok := r.Next()
		if !ok {
			return out
		}
		out = append(out, ops...)
	}
}

// streamKey identifies one generated stream. Profile contains only value
// fields, so the struct is comparable and two keys are equal exactly when
// New would produce identical streams.
type streamKey struct {
	prof     Profile
	pageSize pagetable.Size
	accesses int
	seed     int64
}

// streamEntryOverhead approximates the fixed per-entry cost (Stream,
// packedStream, chunk headers) added to the encoded bytes when charging
// the budget.
const streamEntryOverhead = 512

// DefaultStreamCacheBytes bounds the shared stream cache. Packed encoding
// stores a stream in a few bytes per op instead of 64, so this budget now
// retains on the order of ten full Figure 5 sweeps at the benchmark scale;
// larger sweeps evict least-recently-used streams and regenerate on
// demand.
const DefaultStreamCacheBytes = 256 << 20

// streams is the process-wide shared stream cache. An entry is charged
// when its generation completes.
var streams = memo.New[streamKey, *Stream](DefaultStreamCacheBytes)

// StreamCacheSnapshot is a point-in-time copy of the stream cache's
// counters. Hits/Misses count lookups (a hit means the stream was already
// generated, or generating, when asked for). Bytes/Streams describe the
// current packed in-memory footprint.
type StreamCacheSnapshot struct {
	Hits, Misses uint64
	Bytes        int64
	Streams      int
}

// StreamCacheInfo reports cache effectiveness and current footprint.
func StreamCacheInfo() StreamCacheSnapshot {
	s := streams.Stats()
	// A stream is shared from the moment its generation starts, so an ask
	// that attaches to one still generating is a hit as well.
	return StreamCacheSnapshot{Hits: s.Hits + s.Deduped, Misses: s.Misses, Bytes: s.Bytes, Streams: s.Entries}
}

// ResetStreamCache drops every cached stream and rewinds all cache state —
// statistics and the LRU clock included — so cache behaviour after a reset
// is exactly that of a fresh process (tests and memory-sensitive callers).
func ResetStreamCache() { streams.Reset() }

// SharedStream returns the cached op stream for (prof, pageSize, accesses,
// seed), starting pipelined generation on first use. Identical parameters
// always return the same *Stream until it is evicted, so N techniques × M
// sweep cells replaying the same workload share one generation and one
// packed backing store. The returned stream may still be generating:
// Reader consumers replay published chunks immediately and block only on
// the unpublished tail. Safe for concurrent use.
func SharedStream(prof Profile, pageSize pagetable.Size, accesses int, seed int64) *Stream {
	// Normalize like New does so trivially-different Profiles (Processes 0
	// versus 1) share an entry.
	if prof.Processes < 1 {
		prof.Processes = 1
	}
	if prof.Threads < 1 {
		prof.Threads = 1
	}
	key := streamKey{prof: prof, pageSize: pageSize, accesses: accesses, seed: seed}
	s, _ := streams.Do(key, func(charge func(int64)) (*Stream, error) {
		s := &Stream{name: key.prof.Name, ps: newPackedStream()}
		go s.generate(key, charge)
		return s, nil
	})
	return s
}

// generate runs the generator with chunks published as encoded, charges
// the completed size against the cache budget (charge is nil for a
// private, uncached stream), and only then marks the stream done. Anyone
// who has observed the stream complete (Len, Ops, a Reader reaching EOF)
// therefore also observes consistent cache statistics.
func (s *Stream) generate(key streamKey, charge func(int64)) {
	ps := s.ps
	ps.encodeChunks(New(key.prof, key.pageSize, key.accesses, key.seed))
	if charge != nil {
		charge(ps.bytes + int64(len(ps.chunks))*32 + streamEntryOverhead)
	}
	ps.finish()
}
