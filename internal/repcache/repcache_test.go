package repcache

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"agilepaging/internal/cpu"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/walker"
	"agilepaging/internal/workload"
)

// sampleReport builds a report with enough distinct state to catch a field
// that fails to round-trip. IdealCycles deliberately exceeds 2^53 — the
// precision cliff a float64 (JSON) encoding would fall off.
func sampleReport(i int) cpu.Report {
	var rep cpu.Report
	rep.Workload = fmt.Sprintf("sample-%d", i)
	rep.PageSize = pagetable.Size4K
	rep.Accesses = uint64(1_000_000 + i)
	rep.TLBMisses = uint64(5_000 + i)
	rep.IdealCycles = (1 << 54) + uint64(i)
	rep.WalkCycles = uint64(77_777 + i)
	rep.TrapCycles = uint64(3_333 + i)
	rep.RefsP50 = 4
	rep.RefsP95 = 24
	rep.RefsMax = 35 + i
	return rep
}

func sampleConfig() cpu.Config {
	return cpu.Config{Technique: 1, PageSize: pagetable.Size4K, MemBytes: 1 << 30}
}

func sampleProfile() workload.Profile {
	return workload.Profile{Name: "t", FootprintBytes: 1 << 24, Processes: 1, Threads: 1}
}

// reset restores pristine default cache state for a test and registers the
// same restoration as cleanup so tests never leak state into each other.
func reset(t *testing.T) {
	t.Helper()
	restore := func() {
		Reset()
		reports.SetBudget(DefaultBudgetBytes)
		SetDir("")
	}
	restore()
	t.Cleanup(restore)
}

func TestKeyForDistinguishesInputs(t *testing.T) {
	cfg, prof := sampleConfig(), sampleProfile()
	base := KeyFor(cfg, prof, 1000, 500, 42)

	perturb := map[string]string{}
	add := func(name, key string) {
		if key == base {
			t.Errorf("%s: key did not change", name)
		}
		if prev, ok := perturb[key]; ok {
			t.Errorf("%s collides with %s", name, prev)
		}
		perturb[key] = name
	}

	c := cfg
	c.Technique = 2
	add("technique", KeyFor(c, prof, 1000, 500, 42))
	c = cfg
	c.PageSize = pagetable.Size2M
	add("page size", KeyFor(c, prof, 1000, 500, 42))
	c = cfg
	c.HardwareAD = !c.HardwareAD
	add("hardware A/D", KeyFor(c, prof, 1000, 500, 42))
	c = cfg
	c.TrapCosts.Cycles[0] += 100
	add("trap cost", KeyFor(c, prof, 1000, 500, 42))
	c = cfg
	c.TrapCosts.Cycles[len(c.TrapCosts.Cycles)-1] += 100
	add("last trap cost", KeyFor(c, prof, 1000, 500, 42))
	p := prof
	p.ZipfS = 1.25
	add("profile zipf", KeyFor(cfg, p, 1000, 500, 42))
	p = prof
	p.Name = "other"
	add("profile name", KeyFor(cfg, p, 1000, 500, 42))
	add("accesses", KeyFor(cfg, prof, 2000, 500, 42))
	add("warmup", KeyFor(cfg, prof, 1000, 0, 42))
	add("seed", KeyFor(cfg, prof, 1000, 500, 43))
}

func TestKeyForNormalizes(t *testing.T) {
	cfg, prof := sampleConfig(), sampleProfile()
	base := KeyFor(cfg, prof, 1000, 500, 42)

	// Zero Cores/Processes/Threads normalize to 1: the machines and streams
	// built from either form are identical, so the cells must share a key.
	c := cfg
	c.Cores = 0
	cz := cfg
	cz.Cores = 1
	if KeyFor(c, prof, 1000, 500, 42) != KeyFor(cz, prof, 1000, 500, 42) {
		t.Error("Cores 0 and 1 should share a key")
	}
	p := prof
	p.Processes, p.Threads = 0, 0
	if KeyFor(cfg, p, 1000, 500, 42) != base {
		t.Error("Processes/Threads 0 and 1 should share a key")
	}
}

// opsScript builds a deterministic n-op scenario script: mostly accesses,
// with a region mapped every 97 ops.
func opsScript(n int) []workload.Op {
	ops := make([]workload.Op, n)
	for i := range ops {
		ops[i] = workload.Op{Kind: workload.OpAccess, PID: i % 2, VA: 0x4000_0000 + uint64(i%4096)*4096, Write: i%3 == 0}
		if i%97 == 0 {
			ops[i] = workload.Op{Kind: workload.OpMmap, PID: i % 2, VA: 0x8000_0000 + uint64(i)<<12, Len: 1 << 21, Size: pagetable.Size4K}
		}
	}
	return ops
}

// TestKeyForPinned pins KeyFor's output for two cells to the literals it
// produced before scenario keys moved to op digests: cell keys name the
// disk tier's files, so they must not change unless keyFormatVersion does.
func TestKeyForPinned(t *testing.T) {
	mcf, ok := workload.ProfileByName("mcf")
	if !ok {
		t.Fatal("no mcf profile")
	}
	for _, tc := range []struct {
		name string
		key  string
		want string
	}{
		{"sample", KeyFor(sampleConfig(), sampleProfile(), 1000, 500, 42), "891de4e8bdf74241c6d06dddf78aea97"},
		{"mcf agile 4K", KeyFor(cpu.DefaultConfig(walker.ModeAgile, pagetable.Size4K), mcf, 130_000, 10_000, 42),
			"45a31075ca9d28e5b26bef25edd93382"},
	} {
		if tc.key != tc.want {
			t.Errorf("%s: KeyFor = %s, want %s", tc.name, tc.key, tc.want)
		}
	}
}

// keyForOps keys a flat op list the way a scenario replay does.
func keyForOps(cfg cpu.Config, name string, ops []workload.Op) string {
	return KeyForOps(cfg, name, DigestOps(ops))
}

func TestKeyForOpsDistinguishesInputs(t *testing.T) {
	cfg := sampleConfig()
	// 200 ops span several hash chunks, so the perturbed op at index 150
	// sits past the first chunk boundary.
	ops := opsScript(200)
	base := keyForOps(cfg, "s", ops)
	if again := keyForOps(cfg, "s", opsScript(200)); again != base {
		t.Fatalf("identical scripts built twice: keys %s and %s", base, again)
	}
	// The digest covers the op list, not how it is cut into blocks.
	if DigestOps(ops[:150], nil, ops[150:]) != DigestOps(ops) {
		t.Fatal("splitting the op list into blocks changed its digest")
	}

	seen := map[string]string{}
	add := func(name, key string) {
		t.Helper()
		if key == base {
			t.Errorf("%s: key did not change", name)
		}
		if prev, ok := seen[key]; ok {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[key] = name
	}
	perturb := func(name string, edit func(op *workload.Op)) {
		t.Helper()
		p := opsScript(200)
		edit(&p[150])
		add(name, keyForOps(cfg, "s", p))
	}
	perturb("Kind", func(op *workload.Op) { op.Kind = workload.OpMunmap })
	perturb("PID", func(op *workload.Op) { op.PID += 7 })
	perturb("Core", func(op *workload.Op) { op.Core = 1 })
	perturb("VA", func(op *workload.Op) { op.VA += 4096 })
	perturb("Len", func(op *workload.Op) { op.Len = 1 << 12 })
	perturb("Size", func(op *workload.Op) { op.Size = pagetable.Size2M })
	perturb("Write", func(op *workload.Op) { op.Write = !op.Write })
	perturb("Fetch", func(op *workload.Op) { op.Fetch = !op.Fetch })
	perturb("N", func(op *workload.Op) { op.N = 64 })

	swapped := opsScript(200)
	swapped[150], swapped[151] = swapped[151], swapped[150]
	add("swap two ops", keyForOps(cfg, "s", swapped))
	add("drop last op", keyForOps(cfg, "s", ops[:len(ops)-1]))
	add("name", keyForOps(cfg, "t", ops))
	c := cfg
	c.Technique = 2
	add("technique", keyForOps(c, "s", ops))
	// A scenario key never equals a cell key, whatever the inputs.
	add("cell key", KeyFor(cfg, sampleProfile(), 200, 0, 0))
}

// DigestOps encodes workload.Op by hand, field by field. A field added to
// Op (or renamed or retyped) must be added to that encoding too, or two
// scripts differing only in it would share a key; this test fails first.
func TestKeyForOpsCoversOpFields(t *testing.T) {
	want := []string{"Kind int", "PID int", "Core int", "VA uint64", "Len uint64",
		"Size int", "Write bool", "Fetch bool", "N int"}
	typ := reflect.TypeOf(workload.Op{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		got = append(got, f.Name+" "+f.Type.Kind().String())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("workload.Op fields = %q, DigestOps encodes %q: update DigestOps and this list together", got, want)
	}
}

// TestKeyTypesAreCanonical guards KeyFor's reflect encoding: every field
// of the configuration and profile must have a per-process-independent
// binary form, and appendCanonical must refuse, naming the field, any type
// that does not.
func TestKeyTypesAreCanonical(t *testing.T) {
	for _, v := range []any{cpu.Config{}, workload.Profile{}} {
		typ := reflect.TypeOf(v)
		if bad := nonCanonicalField(typ, typ.String()); bad != "" {
			t.Errorf("%s cannot be part of a content key: %s", typ, bad)
		}
	}

	type inner struct {
		OK  [2]int
		Bad map[string]int
	}
	type outer struct {
		Name  string
		Inner inner
	}
	for _, tc := range []struct {
		v    any
		want string
	}{
		{outer{}, "repcache.outer.Inner.Bad (map)"},
		{struct{ P *int }{}, ".P (ptr)"},
		{struct{ S []int }{}, ".S (slice)"},
		{struct{ F func() }{}, ".F (func)"},
		{struct{ I any }{}, ".I (interface)"},
		{struct{ C chan int }{}, ".C (chan)"},
		{struct{ A [1]*int }{}, ".A[i] (ptr)"},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasSuffix(msg, tc.want) {
					t.Errorf("appendCanonical(%T) panic = %q, want suffix %q", tc.v, msg, tc.want)
				}
			}()
			appendCanonical(nil, reflect.ValueOf(tc.v))
		}()
	}
}

// TestKeyForOpsAllocsConstant pins the cost model of scenario keys: the op
// digest allocates nothing, per op or at all, so a long script costs no
// more allocations than a short one, and the key over a digest allocates
// only its string.
func TestKeyForOpsAllocsConstant(t *testing.T) {
	cfg := sampleConfig()
	short, long := opsScript(10), opsScript(100_000)
	shortAllocs := testing.AllocsPerRun(20, func() { digestSink = DigestOps(short) })
	longAllocs := testing.AllocsPerRun(3, func() { digestSink = DigestOps(long[:50_000], long[50_000:]) })
	if shortAllocs != 0 || longAllocs != 0 {
		t.Fatalf("DigestOps allocs: %v for 10 ops, %v for 100k ops; want 0", shortAllocs, longAllocs)
	}
	d := DigestOps(long)
	if keyAllocs := testing.AllocsPerRun(20, func() { keySink = KeyForOps(cfg, "s", d) }); keyAllocs > 1 {
		t.Fatalf("KeyForOps allocs: %v, want <= 1 (the key string)", keyAllocs)
	}
}

var (
	keySink    string
	digestSink OpsDigest
)

func BenchmarkKeyFor(b *testing.B) {
	cfg := cpu.DefaultConfig(walker.ModeAgile, pagetable.Size4K)
	prof, _ := workload.ProfileByName("mcf")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keySink = KeyFor(cfg, prof, 130_000, 10_000, int64(i))
	}
}

// BenchmarkDigestOps hashes a script the size of a churn scenario (~400k
// ops), the once-per-op-list cost of a scenario key.
func BenchmarkDigestOps(b *testing.B) {
	ops := opsScript(400_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		digestSink = DigestOps(ops)
	}
}

// BenchmarkKeyForOps keys one configuration of an already-digested
// script, the per-replay cost of a scenario key.
func BenchmarkKeyForOps(b *testing.B) {
	cfg := cpu.DefaultConfig(walker.ModeAgile, pagetable.Size4K)
	d := DigestOps(opsScript(400_000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keySink = KeyForOps(cfg, "scenario", d)
	}
}

func BenchmarkDoHit(b *testing.B) {
	Reset()
	b.Cleanup(Reset)
	compute := func() (cpu.Report, error) { return sampleReport(1), nil }
	key := KeyFor(sampleConfig(), sampleProfile(), 1000, 0, 1)
	if _, err := Do(key, compute); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Do(key, compute); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDoHitMissStats(t *testing.T) {
	reset(t)
	var computes atomic.Int64
	compute := func() (cpu.Report, error) {
		computes.Add(1)
		return sampleReport(1), nil
	}

	first, err := Do("k1", compute)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Do("k1", compute)
	if err != nil {
		t.Fatal(err)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached report differs from computed report")
	}
	if _, err := Do("k2", compute); err != nil {
		t.Fatal(err)
	}
	hits, misses, deduped := Stats()
	if hits != 1 || misses != 2 || deduped != 0 {
		t.Fatalf("stats = %d hits / %d misses / %d deduped, want 1/2/0", hits, misses, deduped)
	}
	if info := Info(); info.Reports != 2 || info.Bytes <= 0 {
		t.Fatalf("footprint = %d reports / %d bytes", info.Reports, info.Bytes)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	reset(t)
	fail := errors.New("boom")
	var computes atomic.Int64
	_, err := Do("k", func() (cpu.Report, error) {
		computes.Add(1)
		return cpu.Report{}, fail
	})
	if !errors.Is(err, fail) {
		t.Fatalf("err = %v, want %v", err, fail)
	}
	rep, err := Do("k", func() (cpu.Report, error) {
		computes.Add(1)
		return sampleReport(7), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep != sampleReport(7) {
		t.Fatal("retry after error returned wrong report")
	}
	if n := computes.Load(); n != 2 {
		t.Fatalf("compute ran %d times, want 2 (error must not be cached)", n)
	}
}

func TestBudgetZeroDisables(t *testing.T) {
	reset(t)
	reports.SetBudget(0)
	var computes atomic.Int64
	for i := 0; i < 3; i++ {
		if _, err := Do("k", func() (cpu.Report, error) {
			computes.Add(1)
			return sampleReport(0), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if n := computes.Load(); n != 3 {
		t.Fatalf("compute ran %d times with cache disabled, want 3", n)
	}
	if info := Info(); info.Reports != 0 || info.Hits != 0 {
		t.Fatalf("disabled cache stored %d reports, %d hits", info.Reports, info.Hits)
	}
}

func TestEvictionLRU(t *testing.T) {
	reset(t)
	perEntry := reportBaseBytes + entryOverhead + 64 // generous per-entry estimate
	reports.SetBudget(3 * perEntry)

	store := func(key string, i int) {
		t.Helper()
		if _, err := Do(key, func() (cpu.Report, error) { return sampleReport(i), nil }); err != nil {
			t.Fatal(err)
		}
	}
	store("a", 1)
	store("b", 2)
	store("c", 3)
	store("a", 1) // touch a: b is now least recently used
	store("d", 4) // must evict b
	var computes atomic.Int64
	store("d", 4)
	if _, err := Do("b", func() (cpu.Report, error) {
		computes.Add(1)
		return sampleReport(2), nil
	}); err != nil {
		t.Fatal(err)
	}
	if computes.Load() != 1 {
		t.Fatal("b should have been evicted as LRU and recomputed")
	}
	if info := Info(); info.Bytes > 3*perEntry {
		t.Fatalf("cache holds %d bytes over budget %d", info.Bytes, 3*perEntry)
	}
}

func TestResetClearsEverything(t *testing.T) {
	reset(t)
	if _, err := Do("k", func() (cpu.Report, error) { return sampleReport(0), nil }); err != nil {
		t.Fatal(err)
	}
	Reset()
	if info := Info(); info != (Snapshot{}) {
		t.Fatalf("after Reset, Info() = %+v, want zero", info)
	}
	var computes atomic.Int64
	if _, err := Do("k", func() (cpu.Report, error) {
		computes.Add(1)
		return sampleReport(0), nil
	}); err != nil {
		t.Fatal(err)
	}
	if computes.Load() != 1 {
		t.Fatal("Reset did not drop the stored report")
	}
}

// TestConcurrentSingleflight is the singleflight contract under -race: many
// goroutines asking for the same small key set run exactly one simulation
// per key and all observe identical reports.
func TestConcurrentSingleflight(t *testing.T) {
	reset(t)
	const goroutines, keys = 32, 4
	var computes [keys]atomic.Int64
	var wg sync.WaitGroup
	results := make([][keys]cpu.Report, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				rep, err := Do(fmt.Sprintf("key-%d", k), func() (cpu.Report, error) {
					computes[k].Add(1)
					return sampleReport(k), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				results[g][k] = rep
			}
		}(g)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		if n := computes[k].Load(); n != 1 {
			t.Errorf("key %d computed %d times, want 1", k, n)
		}
		for g := 0; g < goroutines; g++ {
			if results[g][k] != sampleReport(k) {
				t.Errorf("goroutine %d key %d got wrong report", g, k)
			}
		}
	}
	info := Info()
	if info.Misses != keys {
		t.Errorf("misses = %d, want %d", info.Misses, keys)
	}
	if info.Hits+info.Deduped != goroutines*keys-keys {
		t.Errorf("hits+deduped = %d, want %d", info.Hits+info.Deduped, goroutines*keys-keys)
	}
}
