package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"

	"agilepaging"
)

// figure5Accesses is the paper-scale measured run length of one Figure 5
// cell; warmup is left at its default of half that.
const figure5Accesses = 120_000

// simSeed maps the benchmark seed onto a simulator seed. Config.Seed 0 means
// "default 42", so the mapping never yields 0 and distinct benchmark seeds
// give distinct simulations.
func simSeed(seed int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>2) + 1
}

// figure5Configs lists the paper's Figure 5 cells: every workload at 4K and
// 2M under the four techniques, in declaration order.
func figure5Configs(seed int64) []agilepaging.Config {
	var cfgs []agilepaging.Config
	for _, w := range agilepaging.Workloads() {
		for _, ps := range []agilepaging.PageSize{agilepaging.Page4K, agilepaging.Page2M} {
			for _, t := range agilepaging.Techniques() {
				cfgs = append(cfgs, agilepaging.Config{
					Workload: w, Technique: t, PageSize: ps,
					Accesses: figure5Accesses, Seed: simSeed(seed),
				})
			}
		}
	}
	return cfgs
}

// campaignConfigs is a typical evaluation campaign: Figure 5 followed, per
// workload, by the agile/4K ablation rows. Each ablation block restates its
// baseline, so the list carries the duplicates a real campaign has (112
// configs, 104 distinct cells).
func campaignConfigs(seed int64) []agilepaging.Config {
	cfgs := figure5Configs(seed)
	for _, w := range agilepaging.Workloads() {
		base := agilepaging.Config{
			Workload: w, Technique: agilepaging.Agile, PageSize: agilepaging.Page4K,
			Accesses: figure5Accesses, Seed: simSeed(seed),
		}
		hwAD, ctxCache, reset, noStart, shsp := base, base, base, base, base
		hwAD.HardwareAD = true
		ctxCache.CtxSwitchCacheEntries = 8
		reset.Revert = agilepaging.RevertReset
		noStart.DisableStartNested = true
		shsp.SHSPBaseline = true
		cfgs = append(cfgs, base, hwAD, ctxCache, reset, noStart, shsp)
	}
	return cfgs
}

// simulatedAccesses counts the accesses behind generated cells' results:
// the measured ones each result reports plus the default warmup, half the
// measured length asked for.
func simulatedAccesses(cfgs []agilepaging.Config, rs []agilepaging.Result) uint64 {
	var n uint64
	for i, c := range cfgs {
		n += rs[i].Accesses + uint64(c.Accesses/2)
	}
	return n
}

// Churn script geometry. Two processes alternate on the CPU, each with a
// populated heap whose pages are drawn Zipf-hot. Process 0 also churns its
// page tables between bursts, through up to churnSlots short-lived mmap
// regions at fixed slots; process 1 is a steady service that only touches
// its heap. The mix is the dynamic case agile paging targets: shadow mode
// suits the steady heap and nested mode the churning regions.
const (
	churnHeapBase   = uint64(0x1000_0000)
	churnHeapPages  = 4096
	churnSlotBase   = uint64(0x4000_0000)
	churnSlotStride = uint64(1) << 24
	churnSlots      = 4
	churnRounds     = 200
	churnBurst      = 2000
	churnReclaim    = 128
	pageBytes       = uint64(4096)
)

// churnEvents is the fixed cycle of page-table events process 0 runs after
// its bursts: mmap, COW snapshot, munmap, clock reclaim. A fixed cycle keeps
// the amount of churn equal across seeds; the seed picks addresses, region
// sizes and victims.
const churnEvents = "mcumcur"

// churnScript generates the page-table-churn scenario for seed: access
// bursts separated by mmap/munmap region churn, COW snapshots with
// write-through, clock reclaim and context switches (the paper's §V
// scenarios). It tracks what is mapped as it goes, so every op is valid at
// replay time: an Unmap or Snapshot names a live region, and every op
// targets the process scheduled at that point. It returns the scenario and
// its number of access ops.
func churnScript(seed int64) (*agilepaging.Scenario, int) {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 4, churnHeapPages-1)
	s := agilepaging.NewScenario().AddProcess(1)
	accesses := 0
	// live[slot] is the page count of process 0's region at that slot, 0
	// when the slot is free.
	var live [churnSlots]int
	slotBase := func(slot int) uint64 { return churnSlotBase + uint64(slot)*churnSlotStride }
	var slots []int
	liveSlots := func() []int {
		slots = slots[:0]
		for slot, pages := range live {
			if pages > 0 {
				slots = append(slots, slot)
			}
		}
		return slots
	}
	for pid := 0; pid < 2; pid++ {
		s.Switch(pid)
		s.Map(pid, churnHeapBase, churnHeapPages*pageBytes, agilepaging.Page4K).Populate(pid, churnHeapBase)
	}
	for round := 0; round < churnRounds; round++ {
		pid := round % 2
		s.Switch(pid)
		var regions []int
		if pid == 0 {
			regions = liveSlots()
		}
		for i := 0; i < churnBurst; i++ {
			var va uint64
			if len(regions) > 0 && rng.Intn(6) == 0 {
				slot := regions[rng.Intn(len(regions))]
				va = slotBase(slot) + uint64(rng.Intn(live[slot]))*pageBytes
			} else {
				va = churnHeapBase + zipf.Uint64()*pageBytes
			}
			va += uint64(rng.Intn(512)) * 8
			if rng.Intn(4) == 0 {
				s.Write(pid, va)
			} else {
				s.Touch(pid, va)
			}
			accesses++
		}
		if pid != 0 {
			continue
		}
		switch churnEvents[(round/2)%len(churnEvents)] {
		case 'm': // mmap a fresh region and fault part of it in
			free := -1
			for slot, pages := range live {
				if pages == 0 {
					free = slot
					break
				}
			}
			if free < 0 {
				break
			}
			pages := 512 + rng.Intn(1536)
			live[free] = pages
			s.Map(0, slotBase(free), uint64(pages)*pageBytes, agilepaging.Page4K).Populate(0, slotBase(free))
		case 'u': // munmap a live region
			if len(regions) == 0 {
				break
			}
			slot := regions[rng.Intn(len(regions))]
			s.Unmap(0, slotBase(slot))
			live[slot] = 0
		case 'c': // COW snapshot, then write through it
			if len(regions) == 0 {
				break
			}
			slot := regions[rng.Intn(len(regions))]
			s.Snapshot(0, slotBase(slot))
			s.WriteRange(0, slotBase(slot), uint64(live[slot]/4)*pageBytes, agilepaging.Page4K)
			accesses += live[slot] / 4
		case 'r': // memory pressure: the clock hand sweeps
			s.Reclaim(0, churnReclaim)
		}
	}
	return s, accesses
}

// churnTechniques are the techniques the churn script is replayed under.
var churnTechniques = []agilepaging.Technique{
	agilepaging.Native, agilepaging.Nested, agilepaging.Shadow, agilepaging.Agile,
}

// digest hashes every field of the results in order. Floats are hashed by
// bit pattern, so equal digests mean bit-identical results.
func digest(rs []agilepaging.Result) string {
	h := sha256.New()
	var b []byte
	for i := range rs {
		r := &rs[i]
		b = append(b[:0], r.Workload...)
		b = append(b, 0)
		for _, v := range []uint64{
			uint64(r.Technique), uint64(r.PageSize),
			math.Float64bits(r.WalkOverhead), math.Float64bits(r.VMMOverhead),
			math.Float64bits(r.TotalOverhead),
			r.Accesses, r.TLBMisses, r.WalkRefs, r.VMExits, r.GuestFaults,
			math.Float64bits(r.AvgRefsPerMiss), uint64(r.RefsP50), uint64(r.RefsP95),
			math.Float64bits(r.MPKI), r.SwitchesToNested, r.SwitchesToShadow,
		} {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// checkResult reports the first invariant a result breaks, or "" when it
// matches its configuration: identity echoed, at least the measured length
// asked for (multithreaded workloads finish their last round), finite
// overheads, and no VM exits without a VMM.
func checkResult(r agilepaging.Result, workload string, tech agilepaging.Technique, ps agilepaging.PageSize, accesses uint64) string {
	switch {
	case r.Workload != workload || r.Technique != tech || r.PageSize != ps:
		return fmt.Sprintf("result is %s/%s/%s, want %s/%s/%s", r.Workload, r.PageSize, r.Technique, workload, ps, tech)
	case r.Accesses < accesses:
		return fmt.Sprintf("%s/%s/%s: %d accesses, want at least %d", workload, ps, tech, r.Accesses, accesses)
	case math.IsNaN(r.TotalOverhead) || math.IsInf(r.TotalOverhead, 0) || r.TotalOverhead < 0:
		return fmt.Sprintf("%s/%s/%s: total overhead %v", workload, ps, tech, r.TotalOverhead)
	case tech == agilepaging.Native && r.VMExits != 0:
		return fmt.Sprintf("%s/%s/native: %d VM exits", workload, ps, r.VMExits)
	}
	return ""
}

// headline is experiments.Headline's agile comparison for one workload and
// page size: agile's speed-up over the better of nested and shadow, and its
// slowdown against native, both as ratios minus one.
func headline(native, nested, shadow, agile agilepaging.Result) (vsBest, vsNative float64) {
	best := math.Min(nested.TotalOverhead, shadow.TotalOverhead)
	return (1+best)/(1+agile.TotalOverhead) - 1, (1+agile.TotalOverhead)/(1+native.TotalOverhead) - 1
}

// figure5Headline returns the 4K geomeans of headline over Figure 5 results
// laid out as figure5Configs lays them out, in percent.
func figure5Headline(rs []agilepaging.Result) (vsBestPct, vsNativePct float64) {
	var logBest, logNative float64
	n := 0
	for i := 0; i+4 <= len(rs); i += 8 { // each workload: 4K block, then 2M block
		b, nat := headline(rs[i], rs[i+1], rs[i+2], rs[i+3])
		logBest += math.Log1p(b)
		logNative += math.Log1p(nat)
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return 100 * math.Expm1(logBest/float64(n)), 100 * math.Expm1(logNative/float64(n))
}

// recordDigests prints, as JSON, the digest every workload's results must
// have for seeds 0..n-1: the Figure 5 cells and the campaign run through
// RunAllWith, and the churn script replayed under each technique.
func recordDigests(w io.Writer, n int) error {
	out := map[string]map[string]string{figure5Cold: {}, churn: {}, rerunWarm: {}}
	opts := agilepaging.RunAllOptions{Workers: runtime.NumCPU()}
	for seed := int64(0); seed < int64(n); seed++ {
		key := strconv.FormatInt(seed, 10)
		cfgs := campaignConfigs(seed)
		rs, _, err := agilepaging.RunAllWith(context.Background(), opts, cfgs)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		out[figure5Cold][key] = digest(rs[:len(figure5Configs(seed))])
		out[rerunWarm][key] = digest(rs)
		script, _ := churnScript(seed)
		var replays []agilepaging.Result
		for _, tech := range churnTechniques {
			r, err := script.Run(agilepaging.ScenarioConfig{Technique: tech, PageSize: agilepaging.Page4K})
			if err != nil {
				return fmt.Errorf("seed %d: churn/%s: %w", seed, tech, err)
			}
			replays = append(replays, r)
		}
		out[churn][key] = digest(replays)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
