// Package repcache memoizes whole simulation cells: it maps the canonical
// content key of one run — (machine configuration, workload, run length,
// warmup split, seed) — to the cpu.Report that run produces.
//
// The paper's evaluation is a grid of such cells, and the drivers revisit
// the same cells constantly: every Figure 5 agile/4K cell reappears as the
// baseline of the ablations, the sensitivity sweep, the SHSP comparison and
// the model validation, and RunAll over a config list repeats cells
// verbatim. Below the cell boundary that redundancy is already gone
// (workload.SharedStream shares op streams, cpu.AcquireMachine reuses
// machines); this package removes it above: a cell simulates once per
// process — or, with the disk tier, once per machine — and every later ask
// returns the stored report.
//
// Correctness rests on the simulator being a pure function of the key
// (pinned by the experiments golden test and the serial/parallel
// equivalence suite): cpu.Report is a plain value struct — counters, fixed
// arrays and one string, no pointers — so a stored report handed to a
// second caller is bit-identical to re-simulating. The key covers every
// input that can alter the report; anything it cannot see (an attached
// miss/trap log, a telemetry recorder) must bypass the cache entirely —
// the experiments layer enforces that by construction, and instrumented
// runs never reach Do.
//
// Keys (KeyFor, KeyForOps) are a sha256 over a canonical binary encoding of
// the inputs: fixed-width little-endian words for numbers and bools, float
// bit patterns, length-prefixed strings, structs and arrays in declaration
// order. Pointer, map, slice, func, interface, chan, unsafe.Pointer and
// uintptr fields have no process-independent value and are refused with a
// panic naming the field. Keys print as 32 hex characters, which also name
// the disk tier's files.
//
// Two tiers:
//
//   - the in-memory memo (internal/memo: byte-budget LRU, default
//     DefaultBudgetBytes, with per-key singleflight), so concurrent sweeps
//     asking for the same cell run one simulation and share the result;
//   - an opt-in disk tier (SetDir / the CLIs' -report-cache-dir flag),
//     consulted on a memo miss: content-addressed files with defensive
//     validation, so repeated CLI or bench invocations skip simulation
//     entirely.
//
// Info reports both tiers' counters, which the CLIs print under -progress.
//
// Concurrency contract: all exported functions are safe for concurrent
// use. Do never calls compute twice for one key unless the first compute
// failed or the entry was evicted or Reset in between.
package repcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"sync"
	"sync/atomic"

	"agilepaging/internal/cpu"
	"agilepaging/internal/memo"
	"agilepaging/internal/workload"
)

// keyFormatVersion invalidates every key when the key derivation itself
// changes shape. It is hashed into each key. Version 2 replaced the %#v
// text rendering with the binary encoding below, so report files written
// by version-1 builds are never looked up again (orphaned misses).
const keyFormatVersion = 2

// keyTypeDigest fingerprints the field names and types of everything a key
// encodes. The binary encoding itself carries only values in declaration
// order, so without it renaming, retyping or reordering a field could map a
// new configuration onto a disk file written for a different one.
var keyTypeDigest = sha256.Sum256([]byte(
	schemaOf(reflect.TypeOf(cpu.Config{})) +
		schemaOf(reflect.TypeOf(workload.Profile{})) +
		schemaOf(reflect.TypeOf(workload.Op{}))))

// KeyFor derives the canonical content key of one simulation cell. The key
// is the first 16 bytes, in hex, of a sha256 over a binary encoding of:
//
//   - the normalized machine configuration (technique, page size, every
//     geometry and cost-model knob), encoded field by field by
//     appendCanonical, which tracks new fields automatically;
//   - the normalized workload profile, the generated-stream parameters
//     (accesses incl. warmup, seed) and the packed stream encoder version
//     (a format change that altered decoded ops must miss);
//   - the warmup split (measurement starts after `warmup` accesses).
//
// Two cells with equal keys produce bit-identical reports; two cells that
// could differ in any counter hash differently. Callers must pass the
// configuration actually handed to the machine (after any driver
// adjustments such as the one-core-per-thread bump).
func KeyFor(cfg cpu.Config, prof workload.Profile, accesses, warmup int, seed int64) string {
	cfg = cfg.Normalized()
	// Normalize the profile the way workload.SharedStream does, so
	// trivially-different profiles (Processes 0 versus 1) share a cell.
	if prof.Processes < 1 {
		prof.Processes = 1
	}
	if prof.Threads < 1 {
		prof.Threads = 1
	}
	var buf [1024]byte
	b := appendKeyHeader(buf[:0], 'c')
	b = appendWord(b, uint64(workload.PackedEncoderVersion()))
	b = appendCanonical(b, reflect.ValueOf(&cfg).Elem())
	b = appendCanonical(b, reflect.ValueOf(&prof).Elem())
	b = appendWord(b, uint64(accesses))
	b = appendWord(b, uint64(warmup))
	b = appendWord(b, uint64(seed))
	return keyString(sha256.Sum256(b))
}

// opBytes is the encoded size of one op in KeyForOps: seven 8-byte words
// and a flag byte.
const opBytes = 7*8 + 1

// KeyForOps derives the content key of a fixed-op-stream cell — a scenario
// replay, where the caller supplies the exact op list rather than a
// generated profile. The key covers the normalized machine configuration,
// the name and every op verbatim, so two scenarios are cache-equal exactly
// when they replay the same ops on the same machine.
//
// Each op is encoded as fixed-width little-endian words (Kind, PID, Core,
// VA, Len, Size, N) and one flag byte (Write, Fetch) into a stack buffer.
// A full buffer is hashed and the next one starts with that digest, so a
// script of any length hashes with no per-op work beyond the encoding and
// no allocation beyond the key string.
func KeyForOps(cfg cpu.Config, name string, ops []workload.Op) string {
	cfg = cfg.Normalized()
	var buf [4096]byte
	b := appendKeyHeader(buf[:0], 'o')
	b = appendCanonical(b, reflect.ValueOf(&cfg).Elem())
	b = appendString(b, name)
	b = appendWord(b, uint64(len(ops)))
	for i := range ops {
		if len(b)+opBytes > len(buf) {
			sum := sha256.Sum256(b)
			b = append(buf[:0], sum[:]...)
		}
		op := &ops[i]
		var flags byte
		if op.Write {
			flags |= 1
		}
		if op.Fetch {
			flags |= 2
		}
		b = appendWord(b, uint64(op.Kind))
		b = appendWord(b, uint64(op.PID))
		b = appendWord(b, uint64(op.Core))
		b = appendWord(b, op.VA)
		b = appendWord(b, op.Len)
		b = appendWord(b, uint64(op.Size))
		b = appendWord(b, uint64(op.N))
		b = append(b, flags)
	}
	return keyString(sha256.Sum256(b))
}

// appendKeyHeader starts every key encoding: the format version, the type
// fingerprint and a byte telling the key kinds apart.
func appendKeyHeader(b []byte, kind byte) []byte {
	b = appendWord(b, keyFormatVersion)
	b = append(b, keyTypeDigest[:]...)
	return append(b, kind)
}

// keyString renders a key: the digest's first 16 bytes in hex.
func keyString(sum [sha256.Size]byte) string {
	var dst [32]byte
	hex.Encode(dst[:], sum[:16])
	return string(dst[:])
}

func appendWord(b []byte, w uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, w)
}

func appendString(b []byte, s string) []byte {
	return append(appendWord(b, uint64(len(s))), s...)
}

// appendCanonical appends the canonical binary encoding of v: bools,
// integers and unsigned integers as 8-byte little-endian words, floats as
// their Float64bits, strings length-prefixed, structs and arrays element by
// element in declaration order. Any other kind panics naming the offending
// field: pointer, map, slice, func, interface, chan, unsafe.Pointer and
// uintptr values are or hold addresses that differ per process, and no
// key type needs complex numbers.
func appendCanonical(b []byte, v reflect.Value) []byte {
	b, ok := appendValue(b, v)
	if !ok {
		panic("repcache: no canonical key encoding for " + nonCanonicalField(v.Type(), v.Type().String()))
	}
	return b
}

// appendValue does appendCanonical's work; ok is false once it reaches a
// kind it cannot encode.
func appendValue(b []byte, v reflect.Value) (_ []byte, ok bool) {
	switch v.Kind() {
	case reflect.Bool:
		var w uint64
		if v.Bool() {
			w = 1
		}
		return appendWord(b, w), true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return appendWord(b, uint64(v.Int())), true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return appendWord(b, v.Uint()), true
	case reflect.Float32, reflect.Float64:
		return appendWord(b, math.Float64bits(v.Float())), true
	case reflect.String:
		return appendString(b, v.String()), true
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if b, ok = appendValue(b, v.Field(i)); !ok {
				return b, false
			}
		}
		return b, true
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if b, ok = appendValue(b, v.Index(i)); !ok {
				return b, false
			}
		}
		return b, true
	}
	return b, false
}

// nonCanonicalField returns the path, rooted at path, of the first field
// of t that appendCanonical cannot encode, with its kind; "" if there is
// none.
func nonCanonicalField(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.String:
		return ""
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if bad := nonCanonicalField(f.Type, path+"."+f.Name); bad != "" {
				return bad
			}
		}
		return ""
	case reflect.Array:
		return nonCanonicalField(t.Elem(), path+"[i]")
	}
	return path + " (" + t.Kind().String() + ")"
}

// entryOverhead approximates the fixed per-entry cost (map slot, entry
// struct, key string) charged on top of the report's own size.
const entryOverhead = 256

// reportBaseBytes is the in-memory size of one cpu.Report value; the
// workload-name string's bytes are charged separately per entry.
var reportBaseBytes = int64(reflect.TypeOf(cpu.Report{}).Size())

// DefaultBudgetBytes bounds the in-memory report cache. Reports are a few
// hundred bytes each, so the default retains on the order of ten thousand
// full Figure 5 sweeps; it exists to bound pathological key churn, not to
// be reached in normal use.
const DefaultBudgetBytes = 16 << 20

// reports is the process-wide in-memory tier. It holds pointers so a hit
// copies the report once, into Do's result.
var reports = memo.New[string, *cpu.Report](DefaultBudgetBytes)

// disk is the disk tier's directory ("" = disabled) and counters.
var disk struct {
	mu                 sync.Mutex
	dir                string
	hits, misses, errs atomic.Uint64
}

// Snapshot is a point-in-time copy of the cache's counters. Hits counts
// asks answered by a stored report; Misses counts asks that computed (or
// loaded from disk); Deduped counts asks that attached to a computation
// already in flight — the singleflight savings a concurrent sweep sees.
// DiskHits counts misses satisfied by a valid -report-cache-dir file
// instead of simulation, DiskMisses misses that simulated, DiskErrors
// failed cache-file writes. Bytes/Reports describe the current in-memory
// footprint.
type Snapshot struct {
	Hits, Misses, Deduped            uint64
	DiskHits, DiskMisses, DiskErrors uint64
	Bytes                            int64
	Reports                          int
}

// Info reports cache effectiveness and current footprint.
func Info() Snapshot {
	s := reports.Stats()
	return Snapshot{
		Hits: s.Hits, Misses: s.Misses, Deduped: s.Deduped,
		DiskHits: disk.hits.Load(), DiskMisses: disk.misses.Load(), DiskErrors: disk.errs.Load(),
		Bytes: s.Bytes, Reports: s.Entries,
	}
}

// Stats reports the in-memory counters (see Info for the full snapshot
// including the disk tier).
func Stats() (hits, misses, deduped uint64) {
	info := Info()
	return info.Hits, info.Misses, info.Deduped
}

// SetDir sets the persistent report-cache directory. When non-empty,
// computed reports are written there and later misses are satisfied from
// valid files instead of simulating. "" (the default) disables the disk
// tier.
func SetDir(dir string) {
	disk.mu.Lock()
	disk.dir = dir
	disk.mu.Unlock()
}

// Reset drops every stored report and rewinds all cache state — statistics
// and the LRU clock included — so behaviour after a reset is exactly that
// of a fresh process. The disk directory setting and budget survive; disk
// files are never removed (they are the point of the disk tier).
func Reset() {
	reports.Reset()
	disk.hits.Store(0)
	disk.misses.Store(0)
	disk.errs.Store(0)
}

// Do returns the memoized report for key, calling compute at most once per
// key across all concurrent callers (later callers block on the first and
// share its result). A miss consults the disk tier before computing. A
// failed compute is never cached: every waiter attached to that flight
// receives the error, and the next Do computes again. With the cache
// disabled (budget 0) Do degenerates to calling compute.
func Do(key string, compute func() (cpu.Report, error)) (cpu.Report, error) {
	rep, err := reports.Do(key, func(charge func(int64)) (*cpu.Report, error) {
		if charge == nil {
			rep, err := compute()
			return &rep, err
		}
		rep, err := computeThroughDisk(key, compute)
		if err == nil {
			charge(reportBaseBytes + int64(len(rep.Workload)) + int64(len(key)) + entryOverhead)
		}
		return &rep, err
	})
	if rep == nil { // the compute this ask waited on panicked
		return cpu.Report{}, err
	}
	return *rep, err
}

// computeThroughDisk serves a miss: from a valid disk file when the disk
// tier is on, otherwise by computing (and then persisting the report).
func computeThroughDisk(key string, compute func() (cpu.Report, error)) (cpu.Report, error) {
	disk.mu.Lock()
	dir := disk.dir
	disk.mu.Unlock()
	if dir == "" {
		return compute()
	}
	if rep, ok := loadReportFromDisk(dir, key); ok {
		disk.hits.Add(1)
		return rep, nil
	}
	rep, err := compute()
	if err != nil {
		return rep, err
	}
	disk.misses.Add(1)
	if writeReportToDisk(dir, key, rep) != nil {
		disk.errs.Add(1)
	}
	return rep, nil
}
