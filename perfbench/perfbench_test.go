package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"agilepaging"
)

// The benchmark may import only the root agilepaging package and the
// standard library. The simulator's internals (the machine pool, retries,
// the cache-budget globals, cpu.Report, repcache statistics) are slated
// for removal or reshaping; a benchmark that never touches them lets those
// simplifications land without editing it, and keeps the benchmark
// measuring what a user of the public API pays.
func TestImportsOnlyFacadeAndStdlib(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			first, _, _ := strings.Cut(path, "/")
			if path != modulePath && (strings.Contains(first, ".") || first == modulePath) {
				t.Errorf("%s imports %q; only %q and the standard library are allowed", file, path, modulePath)
			}
		}
	}
}

// Every op of a churn script must be valid when it replays: an Unmap
// after its Map, accesses only to the scheduled process. Two seeds replay
// under every technique with no error, and where a digest is recorded the
// results match it.
func TestChurnScriptReplays(t *testing.T) {
	var recorded map[string]map[string]string
	if err := json.Unmarshal(recordedDigests, &recorded); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{0, 1} {
		s, accesses := churnScript(seed)
		if again, _ := churnScript(seed); again.Len() != s.Len() {
			t.Fatalf("seed %d: script length %d then %d", seed, s.Len(), again.Len())
		}
		var rs []agilepaging.Result
		for _, tech := range churnTechniques {
			r, err := s.Run(agilepaging.ScenarioConfig{Technique: tech, PageSize: agilepaging.Page4K})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, tech, err)
			}
			if msg := checkResult(r, "scenario", tech, agilepaging.Page4K, uint64(accesses)); msg != "" {
				t.Errorf("seed %d: %s", seed, msg)
			}
			if r.Accesses != uint64(accesses) {
				t.Errorf("seed %d %s: %d accesses, script has %d", seed, tech, r.Accesses, accesses)
			}
			rs = append(rs, r)
		}
		if want, ok := recorded[churn][strconv.FormatInt(seed, 10)]; ok && digest(rs) != want {
			t.Errorf("seed %d: digest %s, recorded %s", seed, digest(rs), want)
		}
		if rs[2].VMExits == 0 || rs[3].SwitchesToNested == 0 {
			t.Errorf("seed %d: shadow exits %d, agile switches to nested %d; the script does not churn",
				seed, rs[2].VMExits, rs[3].SwitchesToNested)
		}
	}
}

// protoBuf is a minimal protobuf encoder for building synthetic profiles.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

func (p *protoBuf) uint(field int, v uint64) { p.varint(uint64(field) << 3); p.varint(v) }

func (p *protoBuf) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

// syntheticProfile encodes a CPU profile with one sample per stack; each
// stack lists frames innermost first, and a frame "a+b" is one location
// whose function a was inlined into b.
func syntheticProfile(stacks [][]string, ns []int64) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var prof protoBuf
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m protoBuf
		m.uint(1, strIdx(vt[0]))
		m.uint(2, strIdx(vt[1]))
		prof.bytes(1, m.b)
	}
	funcs := map[string]uint64{}
	var locID uint64
	for i, stack := range stacks {
		var sample, locs, vals protoBuf
		for _, frame := range stack {
			locID++
			var loc protoBuf
			loc.uint(1, locID)
			for _, fn := range strings.Split(frame, "+") {
				id, ok := funcs[fn]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[fn] = id
					var f protoBuf
					f.uint(1, id)
					f.uint(2, strIdx(fn))
					prof.bytes(5, f.b)
				}
				var line protoBuf
				line.uint(1, id)
				loc.bytes(4, line.b)
			}
			prof.bytes(4, loc.b)
			locs.varint(locID)
		}
		sample.bytes(1, locs.b) // packed location ids
		vals.varint(1)
		vals.varint(uint64(ns[i]))
		sample.bytes(2, vals.b) // packed values
		prof.bytes(2, sample.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	zw.Close()
	return gz.Bytes()
}

// Library time belongs to the innermost repository frame that called it;
// a sample with no repository frame is the runtime's; a package the layer
// list does not name keeps its own name.
func TestFoldLayers(t *testing.T) {
	stacks := [][]string{
		{"fmt.(*pp).doPrintf", "fmt.Fprintf", "agilepaging/internal/repcache.KeyForOps", "agilepaging.(*Scenario).Run", "main.runChild"},
		{"math.Pow", "math.log+agilepaging/internal/workload.(*zipf).next", "agilepaging/internal/workload.(*generator).Next", "runtime.goexit"},
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		{"agilepaging/internal/setassoc.(*Array[go.shape.uint64]).Lookup", "agilepaging/internal/tlb.(*Hierarchy).Lookup"},
		{"agilepaging/internal/sweep.Execute[go.shape.struct { agilepaging/internal/x.Y }]", "main.main"},
		{"crypto/sha256.block", "main.digest"},
	}
	ns := []int64{10e6, 20e6, 30e6, 40e6, 50e6, 60e6}
	samples, err := parseCPUProfile(syntheticProfile(stacks, ns))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) || len(samples[1].stack) != 5 {
		t.Fatalf("decoded %d samples, second stack %v", len(samples), samples[1].stack)
	}
	got := foldLayers(samples)
	want := map[string]int64{"repcache": 10e6, "workload": 20e6, "runtime": 30e6, "setassoc": 40e6, "sweep": 50e6, "bench": 60e6}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
	for layer, ns := range want {
		if got[layer] != ns {
			t.Errorf("%s: %d ns, want %d (all: %v)", layer, got[layer], ns, got)
		}
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// The decoder reads what runtime/pprof writes.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.ns
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spin") {
				inSpin += s.ns
				break
			}
		}
	}
	if total == 0 || inSpin < total/2 {
		t.Errorf("%d samples, %d ns in spin of %d ns", len(samples), inSpin, total)
	}
}

// BENCHMARK.json and the program must agree on every workload and metric.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program prints %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || (want[i].better != "" && m.Better != want[i].better) {
				t.Errorf("%s[%d] = %+v, program prints %+v", kind, i, m, want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.8, 4.2}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}
