package workload

import (
	"reflect"
	"sync"
	"testing"

	"agilepaging/internal/pagetable"
)

// freshCache isolates a test from global stream-cache state.
func freshCache(t testing.TB, budget int64) {
	t.Helper()
	ResetStreamCache()
	streams.SetBudget(budget)
	t.Cleanup(func() {
		ResetStreamCache()
		streams.SetBudget(DefaultStreamCacheBytes)
	})
}

func streamProfile(name string) Profile {
	return Profile{
		Name: name, FootprintBytes: 1 << 20, Pattern: PatternZipf,
		ZipfS: 1.1, WriteRatio: 0.3, MmapChurnEvery: 200,
		ChurnRegionBytes: 16 << 10, ChurnRegions: 2,
	}
}

func TestSharedStreamMatchesGenerator(t *testing.T) {
	freshCache(t, DefaultStreamCacheBytes)
	prof := streamProfile("shared")
	want := Collect(New(prof, pagetable.Size4K, 1000, 7), -1)
	s := SharedStream(prof, pagetable.Size4K, 1000, 7)
	if !reflect.DeepEqual(want, s.Ops()) {
		t.Fatal("SharedStream ops differ from a fresh generator's")
	}
	if s.Len() != len(want) {
		t.Errorf("Len() = %d, want %d", s.Len(), len(want))
	}
}

// TestStreamReaderChunks pins the Reader contract: chunks of at most
// PackedChunkOps ops that concatenate to exactly the generated stream,
// Reset rewinding to the first chunk, and a second reader (a late arrival
// attaching to already-published chunks) seeing the same sequence.
func TestStreamReaderChunks(t *testing.T) {
	freshCache(t, DefaultStreamCacheBytes)
	prof := streamProfile("chunks")
	const accesses = 10_000 // several chunks
	want := Collect(New(prof, pagetable.Size4K, accesses, 3), -1)
	s := SharedStream(prof, pagetable.Size4K, accesses, 3)

	drain := func(r *StreamReader) []Op {
		var got []Op
		chunks := 0
		for {
			ops, ok := r.Next()
			if !ok {
				break
			}
			if len(ops) == 0 || len(ops) > PackedChunkOps {
				t.Fatalf("chunk %d has %d ops", chunks, len(ops))
			}
			got = append(got, ops...)
			chunks++
		}
		if min := (len(want) + PackedChunkOps - 1) / PackedChunkOps; chunks != min {
			t.Fatalf("stream decoded in %d chunks, want %d", chunks, min)
		}
		return got
	}

	r := s.Reader()
	defer r.Close()
	if got := drain(r); !reflect.DeepEqual(want, got) {
		t.Fatal("Reader sequence differs from generator output")
	}
	r.Reset()
	if got := drain(r); !reflect.DeepEqual(want, got) {
		t.Fatal("Reader sequence differs after Reset")
	}
	late := s.Reader()
	defer late.Close()
	if got := drain(late); !reflect.DeepEqual(want, got) {
		t.Fatal("late reader sequence differs")
	}
}

// TestSharedStreamPipelinedConsumers starts several consumers immediately
// after the (asynchronous, chunk-publishing) generation kicks off; each
// must see the full identical stream regardless of how its reads interleave
// with generation.
func TestSharedStreamPipelinedConsumers(t *testing.T) {
	freshCache(t, DefaultStreamCacheBytes)
	prof := streamProfile("pipeline")
	const accesses = 20_000
	s := SharedStream(prof, pagetable.Size4K, accesses, 11)
	const consumers = 4
	lens := make([]int, consumers)
	sums := make([]uint64, consumers)
	var wg sync.WaitGroup
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := s.Reader()
			defer r.Close()
			for {
				ops, ok := r.Next()
				if !ok {
					return
				}
				lens[i] += len(ops)
				for j := range ops {
					sums[i] += ops[j].VA + uint64(ops[j].Kind)
				}
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < consumers; i++ {
		if lens[i] != lens[0] || sums[i] != sums[0] {
			t.Fatalf("consumer %d saw %d ops (sum %d), consumer 0 saw %d (sum %d)",
				i, lens[i], sums[i], lens[0], sums[0])
		}
	}
	if lens[0] != s.Len() {
		t.Fatalf("consumers saw %d ops, stream Len() = %d", lens[0], s.Len())
	}
}

func TestSharedStreamCacheHit(t *testing.T) {
	freshCache(t, DefaultStreamCacheBytes)
	prof := streamProfile("hit")
	a := SharedStream(prof, pagetable.Size4K, 500, 1)
	b := SharedStream(prof, pagetable.Size4K, 500, 1)
	if a != b {
		t.Error("identical parameters returned distinct streams")
	}
	// Different seed, page size, or accesses must not share.
	if SharedStream(prof, pagetable.Size4K, 500, 2) == a {
		t.Error("different seed shared a stream")
	}
	if SharedStream(prof, pagetable.Size2M, 500, 1) == a {
		t.Error("different page size shared a stream")
	}
	if info := StreamCacheInfo(); info.Hits != 1 || info.Misses != 3 {
		t.Errorf("stats = %d hits / %d misses, want 1/3", info.Hits, info.Misses)
	}
	// The budget is charged when generation completes (observing a
	// completed stream implies consistent statistics).
	a.PackedBytes()
	if bytes := StreamCacheInfo().Bytes; bytes <= 0 {
		t.Errorf("cache bytes = %d after generation, want > 0", bytes)
	}
	// Normalization: Processes/Threads 0 and 1 are the same workload.
	p0 := streamProfile("norm")
	p1 := p0
	p1.Processes, p1.Threads = 1, 1
	if SharedStream(p0, pagetable.Size4K, 100, 3) != SharedStream(p1, pagetable.Size4K, 100, 3) {
		t.Error("Processes/Threads normalization failed; equivalent profiles missed")
	}
}

func TestSharedStreamBudgetZeroDisables(t *testing.T) {
	freshCache(t, 0)
	prof := streamProfile("nocache")
	a := SharedStream(prof, pagetable.Size4K, 300, 1)
	b := SharedStream(prof, pagetable.Size4K, 300, 1)
	if a == b {
		t.Error("budget 0 should disable sharing")
	}
	if !reflect.DeepEqual(a.Ops(), b.Ops()) {
		t.Error("private streams differ for identical parameters")
	}
	if bytes := StreamCacheInfo().Bytes; bytes != 0 {
		t.Errorf("disabled cache holds %d bytes, want 0", bytes)
	}
}

func TestStreamCacheEviction(t *testing.T) {
	// Budget sized to hold roughly one packed stream, so each new key
	// evicts the previous one.
	prof := streamProfile("evict")
	freshCache(t, DefaultStreamCacheBytes)
	probe := SharedStream(prof, pagetable.Size4K, 2000, 1)
	one := probe.PackedBytes() + 2*streamEntryOverhead
	freshCache(t, one)

	a := SharedStream(prof, pagetable.Size4K, 2000, 1)
	a.PackedBytes()
	s2 := SharedStream(prof, pagetable.Size4K, 2000, 2) // evicts a when charged
	s2.PackedBytes()
	if bytes := StreamCacheInfo().Bytes; bytes > one {
		t.Errorf("cache bytes %d exceed budget %d after eviction", bytes, one)
	}
	if SharedStream(prof, pagetable.Size4K, 2000, 1) == a {
		t.Error("stream for seed 1 survived over-budget eviction")
	}

	// Unlimited budget never evicts.
	freshCache(t, -1)
	for seed := int64(0); seed < 8; seed++ {
		SharedStream(prof, pagetable.Size4K, 2000, seed).PackedBytes()
	}
	if info := StreamCacheInfo(); info.Hits != 0 || info.Misses != 8 {
		t.Errorf("unbounded cache stats %d/%d, want 0 hits / 8 misses", info.Hits, info.Misses)
	}
	for seed := int64(0); seed < 8; seed++ {
		SharedStream(prof, pagetable.Size4K, 2000, seed)
	}
	if hits := StreamCacheInfo().Hits; hits != 8 {
		t.Errorf("unbounded cache evicted: %d hits on re-request, want 8", hits)
	}
}

// TestResetStreamCacheRewindsClock pins that a reset restores the cache to
// its fresh-process state: statistics zeroed, every stream dropped, and the
// first request afterwards counted exactly as in a new process. The LRU
// clock is the memo store's; memo's TestResetRewindsClock pins its rewind.
func TestResetStreamCacheRewindsClock(t *testing.T) {
	freshCache(t, DefaultStreamCacheBytes)
	prof := streamProfile("clock")
	first := SharedStream(prof, pagetable.Size4K, 200, 0)
	for seed := int64(1); seed < 5; seed++ {
		SharedStream(prof, pagetable.Size4K, 200, seed).PackedBytes()
	}
	first.PackedBytes()
	ResetStreamCache()
	if info := StreamCacheInfo(); info != (StreamCacheSnapshot{}) {
		t.Fatalf("after reset, StreamCacheInfo() = %+v, want zero", info)
	}
	if SharedStream(prof, pagetable.Size4K, 200, 0) == first {
		t.Fatal("a stream cached before the reset survived it")
	}
	info := StreamCacheInfo()
	if info.Hits != 0 || info.Misses != 1 || info.Streams != 1 {
		t.Fatalf("post-reset stats = %+v, want 0 hits / 1 miss / 1 stream", info)
	}
}

func TestSharedStreamConcurrent(t *testing.T) {
	freshCache(t, DefaultStreamCacheBytes)
	prof := streamProfile("conc")
	const goroutines = 16
	results := make([]*Stream, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = SharedStream(prof, pagetable.Size4K, 1500, 9)
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if results[i] != results[0] {
			t.Fatalf("goroutine %d got a different stream instance", i)
		}
	}
	if info := StreamCacheInfo(); info.Misses != 1 || info.Hits != goroutines-1 {
		t.Errorf("stats = %d hits / %d misses, want %d/1 (single generation)", info.Hits, info.Misses, goroutines-1)
	}
}

func BenchmarkSharedStreamHit(b *testing.B) {
	freshCache(b, DefaultStreamCacheBytes)
	prof := streamProfile("bench-hit")
	SharedStream(prof, pagetable.Size4K, 30_000, 42).PackedBytes() // populate
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SharedStream(prof, pagetable.Size4K, 30_000, 42)
	}
}

func BenchmarkSharedStreamMiss(b *testing.B) {
	freshCache(b, -1)
	prof := streamProfile("bench-miss")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SharedStream(prof, pagetable.Size4K, 30_000, int64(i)).PackedBytes()
	}
}

// BenchmarkSharedStreamCold measures the full cold path a sweep's first
// consumer pays: pipelined generation plus a complete chunked read-through
// of the stream. Compare with BenchmarkSharedStreamMiss (generation only)
// and BenchmarkPackedDecode (decode only).
func BenchmarkSharedStreamCold(b *testing.B) {
	freshCache(b, -1)
	prof := streamProfile("bench-cold")
	b.ReportAllocs()
	b.ResetTimer()
	ops := 0
	for i := 0; i < b.N; i++ {
		s := SharedStream(prof, pagetable.Size4K, 30_000, int64(i))
		r := s.Reader()
		for {
			chunk, ok := r.Next()
			if !ok {
				break
			}
			ops += len(chunk)
		}
		r.Close()
	}
	if ops == 0 {
		b.Fatal("no ops read")
	}
}
