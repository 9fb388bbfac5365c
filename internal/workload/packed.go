package workload

import (
	"encoding/binary"
	"fmt"
	"sync"

	"agilepaging/internal/pagetable"
)

// Packed op streams.
//
// A generated stream stored as []Op costs ~64 bytes per op, which caps how
// many streams the shared cache can retain and makes cold generation the
// dominant allocator in sweep benchmarks. PackedStream instead stores ops
// as delta/varint-encoded bytes in fixed-size chunks: the dominant case —
// an OpAccess on the same PID/core as its predecessor with a small VA
// delta — packs to a handful of bytes. Chunks are also the unit of
// pipelining: the generator publishes each chunk as soon as it is encoded,
// so the first consumer starts executing ops while the tail of the stream
// is still being generated, and the unit of decoding: a StreamReader
// decodes one chunk at a time into a pooled fixed-size buffer, keeping
// steady-state replay allocation-free.
//
// Wire format (one op):
//
//	tag byte:  kind (low 4 bits; 0xF escapes to a zigzag varint for
//	           out-of-range kinds) | flagWrite | flagFetch | flagCtx |
//	           flagExtra (high 4 bits)
//	[flagCtx]  zigzag varint PID, zigzag varint Core
//	[flagExtra] uvarint Len, zigzag varint Size, zigzag varint N
//	always     zigzag varint VA delta from the previous op's VA
//
// The decoder carries (prevVA, PID, Core) as running state; flagCtx marks
// the ops that change PID or Core, so the common same-process access needs
// neither. Running state resets at every chunk boundary, making each chunk
// independently decodable. Any change here must bump packedEncoderVersion
// so reports cached under the old encoding miss.

// PackedChunkOps is the number of ops encoded per chunk: large enough to
// amortize the chunk-boundary state reset and the per-chunk publish
// handshake, small enough that pipelined consumers start executing well
// before generation finishes (a full stream is hundreds of chunks).
const PackedChunkOps = 4096

// packedEncoderVersion identifies the op wire format. It participates in
// repcache's cell keys; bump it whenever the encoding changes shape.
const packedEncoderVersion = 1

// PackedEncoderVersion exposes the op wire-format version for content keys
// layered above this package (a format change alters the decoded ops a
// simulation replays, so any cache keyed on stream content must include it).
func PackedEncoderVersion() uint32 { return packedEncoderVersion }

// Tag-byte flag bits (high nibble).
const (
	flagWrite = 1 << 4
	flagFetch = 1 << 5
	flagCtx   = 1 << 6 // PID or Core differ from the running state
	flagExtra = 1 << 7 // Len, Size, or N is nonzero
)

// kindEscape in the tag's low nibble means the kind did not fit 4 bits and
// follows as a zigzag varint (never produced for the real OpKinds, but the
// encoder must round-trip arbitrary values for the property tests).
const kindEscape = 0xF

// packState is the running decoder/encoder state, reset per chunk.
type packState struct {
	prevVA uint64
	pid    int
	core   int
}

// packedChunk is one encoded run of up to PackedChunkOps ops. data is
// immutable once the chunk is published.
type packedChunk struct {
	data []byte
	ops  int
}

// appendUvarint appends v in LEB128 form.
func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// appendZigzag appends a signed value in zigzag-LEB128 form.
func appendZigzag(b []byte, v int64) []byte {
	return appendUvarint(b, uint64(v)<<1^uint64(v>>63))
}

// appendOp encodes op given the running state, updating the state.
func appendOp(b []byte, op *Op, st *packState) []byte {
	var tag byte
	if k := int(op.Kind); k >= 0 && k < kindEscape {
		tag = byte(k)
	} else {
		tag = kindEscape
	}
	if op.Write {
		tag |= flagWrite
	}
	if op.Fetch {
		tag |= flagFetch
	}
	ctx := op.PID != st.pid || op.Core != st.core
	if ctx {
		tag |= flagCtx
	}
	extra := op.Len != 0 || op.Size != 0 || op.N != 0
	if extra {
		tag |= flagExtra
	}
	b = append(b, tag)
	if tag&0xF == kindEscape {
		b = appendZigzag(b, int64(op.Kind))
	}
	if ctx {
		b = appendZigzag(b, int64(op.PID))
		b = appendZigzag(b, int64(op.Core))
		st.pid, st.core = op.PID, op.Core
	}
	if extra {
		b = appendUvarint(b, op.Len)
		b = appendZigzag(b, int64(op.Size))
		b = appendZigzag(b, int64(op.N))
	}
	// The delta is computed in wraparound uint64 arithmetic, so every
	// (prevVA, VA) pair round-trips exactly.
	b = appendZigzag(b, int64(op.VA-st.prevVA))
	st.prevVA = op.VA
	return b
}

// errCorruptChunk reports a malformed encoded chunk. Chunks are produced by
// appendOp and cannot be malformed, so this surfaces only on an encoder bug
// (Reader.Next turns it into a panic naming the chunk) or on hostile bytes
// handed to the decoder directly, which must never panic or misdecode.
var errCorruptChunk = fmt.Errorf("workload: corrupt packed chunk")

// readUvarint is binary.Uvarint with explicit error reporting.
func readUvarint(b []byte) (uint64, int, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, errCorruptChunk
	}
	return v, n, nil
}

// readZigzag decodes one zigzag-LEB128 value.
func readZigzag(b []byte) (int64, int, error) {
	u, n, err := readUvarint(b)
	if err != nil {
		return 0, 0, err
	}
	return int64(u>>1) ^ -int64(u&1), n, nil
}

// decodeChunkInto decodes data into buf[:want] and returns the op slice.
// want is the chunk's recorded op count; decoding fails if the bytes do
// not contain exactly that many well-formed ops. The loop is the warm
// replay hot path (~12 ns/op dominates a cached sweep's stream cost), so
// the per-op VA delta varint is decoded inline — the helper functions
// contain loops and do not inline — and only the rare tag flags take the
// out-of-line readers.
func decodeChunkInto(data []byte, buf *[PackedChunkOps]Op, want int) ([]Op, error) {
	if want < 0 || want > PackedChunkOps {
		return nil, errCorruptChunk
	}
	var prevVA uint64
	var pid, core int
	i := 0
	for n := 0; n < want; n++ {
		if i >= len(data) {
			return nil, errCorruptChunk
		}
		tag := data[i]
		i++
		op := &buf[n]
		kind := OpKind(tag & 0xF)
		if kind == kindEscape {
			k, n2, err := readZigzag(data[i:])
			if err != nil {
				return nil, err
			}
			kind = OpKind(k)
			i += n2
		}
		if tag&flagCtx != 0 {
			p, n2, err := readZigzag(data[i:])
			if err != nil {
				return nil, err
			}
			i += n2
			c, n3, err := readZigzag(data[i:])
			if err != nil {
				return nil, err
			}
			i += n3
			pid, core = int(p), int(c)
		}
		if tag&flagExtra != 0 {
			l, n2, err := readUvarint(data[i:])
			if err != nil {
				return nil, err
			}
			i += n2
			size, n3, err := readZigzag(data[i:])
			if err != nil {
				return nil, err
			}
			i += n3
			cnt, n4, err := readZigzag(data[i:])
			if err != nil {
				return nil, err
			}
			i += n4
			op.Len = l
			op.Size = pagetable.Size(size)
			op.N = int(cnt)
		} else {
			op.Len, op.Size, op.N = 0, 0, 0
		}
		// VA delta, inlined zigzag uvarint. Unlike binary.Uvarint this
		// accepts a non-minimal final byte (it masks instead of erroring);
		// the encoder only emits minimal forms, and for hostile bytes
		// acceptance is still deterministic and panic-free.
		var u uint64
		var sh uint
		for {
			if i >= len(data) {
				return nil, errCorruptChunk
			}
			c := data[i]
			i++
			u |= uint64(c&0x7f) << sh
			if c < 0x80 {
				break
			}
			sh += 7
			if sh >= 64 {
				return nil, errCorruptChunk
			}
		}
		prevVA += uint64(int64(u>>1) ^ -int64(u&1))
		op.Kind = kind
		op.PID, op.Core = pid, core
		op.VA = prevVA
		op.Write = tag&flagWrite != 0
		op.Fetch = tag&flagFetch != 0
	}
	if i != len(data) {
		return nil, errCorruptChunk
	}
	return buf[:want], nil
}

// chunkBufPool recycles decode buffers. A fixed-size array pointer (not a
// slice) is pooled so Put/Get never allocate a slice header.
var chunkBufPool = sync.Pool{New: func() any { return new([PackedChunkOps]Op) }}

// chunkEncoder accumulates ops into the current chunk.
type chunkEncoder struct {
	data []byte
	ops  int
	st   packState
}

// encodedBytesPerOpHint pre-sizes chunk buffers: typical mixes encode to
// ~4–6 bytes per op, so 8 avoids regrowth without wasting much.
const encodedBytesPerOpHint = 8

func (e *chunkEncoder) reset() {
	if e.data == nil {
		e.data = make([]byte, 0, PackedChunkOps*encodedBytesPerOpHint)
	} else {
		e.data = e.data[:0]
	}
	e.ops = 0
	e.st = packState{}
}

func (e *chunkEncoder) add(op *Op) {
	e.data = appendOp(e.data, op, &e.st)
	e.ops++
}

// take snapshots the current chunk (copying the bytes to an exact-size
// slice, which is what the stream retains) and resets the encoder.
func (e *chunkEncoder) take() packedChunk {
	data := make([]byte, len(e.data))
	copy(data, e.data)
	ch := packedChunk{data: data, ops: e.ops}
	e.reset()
	return ch
}

// packedStream holds the encoded chunks plus the publish/subscribe state
// for pipelined generation. Readers wait on cond for the next chunk;
// the generator appends chunks as they are encoded and marks done when the
// stream is complete.
type packedStream struct {
	mu     sync.Mutex
	cond   sync.Cond
	chunks []packedChunk
	done   bool
	numOps int
	bytes  int64 // total encoded bytes across chunks
}

func newPackedStream() *packedStream {
	ps := &packedStream{}
	ps.cond.L = &ps.mu
	return ps
}

// publish appends one finished chunk and wakes waiting readers.
func (ps *packedStream) publish(ch packedChunk) {
	ps.mu.Lock()
	ps.chunks = append(ps.chunks, ch)
	ps.numOps += ch.ops
	ps.bytes += int64(len(ch.data))
	ps.cond.Broadcast()
	ps.mu.Unlock()
}

// finish marks the stream complete and wakes readers blocked on the tail.
func (ps *packedStream) finish() {
	ps.mu.Lock()
	ps.done = true
	ps.cond.Broadcast()
	ps.mu.Unlock()
}

// waitDone blocks until generation has completed.
func (ps *packedStream) waitDone() {
	ps.mu.Lock()
	for !ps.done {
		ps.cond.Wait()
	}
	ps.mu.Unlock()
}

// chunkAt blocks until chunk i is published (returning it) or the stream
// finished with fewer chunks (ok false).
func (ps *packedStream) chunkAt(i int) (packedChunk, bool) {
	ps.mu.Lock()
	for i >= len(ps.chunks) && !ps.done {
		ps.cond.Wait()
	}
	if i >= len(ps.chunks) {
		ps.mu.Unlock()
		return packedChunk{}, false
	}
	ch := ps.chunks[i]
	ps.mu.Unlock()
	return ch, true
}

// encodeChunks drains gen into ps chunk by chunk, publishing each as soon
// as it is full so pipelined readers can start before generation
// completes. The caller marks the stream finished (after any bookkeeping
// that must be visible to waiters observing completion).
func (ps *packedStream) encodeChunks(gen Generator) {
	var e chunkEncoder
	e.reset()
	for {
		op, ok := gen.Next()
		if !ok {
			break
		}
		e.add(&op)
		if e.ops == PackedChunkOps {
			ps.publish(e.take())
		}
	}
	if e.ops > 0 {
		ps.publish(e.take())
	}
}

// StreamReader is a forward cursor over a stream's decoded chunks. Each
// reader owns one pooled decode buffer that every Next reuses, so
// steady-state replay performs no per-op or per-chunk allocation. Readers
// are not safe for concurrent use (take one per consumer); Close returns
// the buffer to the pool.
type StreamReader struct {
	ps   *packedStream
	next int
	buf  *[PackedChunkOps]Op
}

// Next decodes and returns the next chunk of ops, blocking while the
// generator is still producing it. ok is false once the stream is
// exhausted. The returned slice aliases the reader's reusable buffer: it
// is valid only until the following Next/Close call.
func (r *StreamReader) Next() ([]Op, bool) {
	ch, ok := r.ps.chunkAt(r.next)
	if !ok {
		return nil, false
	}
	r.next++
	if r.buf == nil {
		r.buf = chunkBufPool.Get().(*[PackedChunkOps]Op)
	}
	ops, err := decodeChunkInto(ch.data, r.buf, ch.ops)
	if err != nil {
		// Chunks come from appendOp, so this is unreachable without an
		// encoder bug.
		panic(fmt.Sprintf("workload: packed chunk %d failed to decode: %v", r.next-1, err))
	}
	return ops, true
}

// Reset rewinds the reader to the first chunk, keeping its buffer.
func (r *StreamReader) Reset() { r.next = 0 }

// Close releases the reader's decode buffer back to the shared pool. The
// reader must not be used afterwards.
func (r *StreamReader) Close() {
	if r.buf != nil {
		chunkBufPool.Put(r.buf)
		r.buf = nil
	}
}
