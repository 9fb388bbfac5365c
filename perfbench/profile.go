package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile as runtime/pprof writes it is a gzipped profile.proto
// message. Only the parts the layer fold needs are decoded here, with the
// standard library alone: sample types, samples, locations with their
// (possibly inlined) lines, functions and the string table.

// stackSample is one profile sample: its call stack as function names,
// innermost frame first, and its CPU time in nanoseconds.
type stackSample struct {
	stack []string
	ns    int64
}

// parseCPUProfile decodes a runtime/pprof CPU profile into stack samples.
func parseCPUProfile(data []byte) ([]stackSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	var (
		sampleTypes []int64 // string index of each value's type
		rawSamples  []struct {
			locs   []uint64
			values []int64
		}
		locations = map[uint64][]uint64{} // location id -> function ids, innermost first
		functions = map[uint64]int64{}    // function id -> name string index
		strs      []string
	)
	err := forEachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type: ValueType
			var typ int64
			err := forEachField(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					typ = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, typ)
			return err
		case 2: // sample
			var s struct {
				locs   []uint64
				values []int64
			}
			err := forEachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendUints(&s.locs, w, v, b)
				case 2:
					var vals []uint64
					if err := appendUints(&vals, w, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := forEachField(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line: inlined frames, innermost first
					return forEachField(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := forEachField(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			functions[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	// CPU profiles carry samples/count and cpu/nanoseconds; fold the time.
	valueIdx := len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no sample types")
	}
	out := make([]stackSample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		if valueIdx >= len(rs.values) {
			return nil, errors.New("profile: sample has too few values")
		}
		var stack []string
		for _, loc := range rs.locs {
			for _, fn := range locations[loc] {
				stack = append(stack, str(functions[fn]))
			}
		}
		out = append(out, stackSample{stack: stack, ns: rs.values[valueIdx]})
	}
	return out, nil
}

// forEachField walks the fields of one protobuf message. For varint and
// fixed-width fields it passes the value in v; for length-delimited fields
// it passes the payload in b.
func forEachField(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = uvarint(data); n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(data[i])
			}
			data = data[8:]
		case 2:
			l, n := uvarint(data)
			if n <= 0 || l > uint64(len(data)-n) {
				return errors.New("profile: bad length")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			v = uint64(data[0]) | uint64(data[1])<<8 | uint64(data[2])<<16 | uint64(data[3])<<24
			data = data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field, packed (wire type 2) or not.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire != 2 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// uvarint decodes a protobuf varint; n <= 0 reports a malformed one.
func uvarint(b []byte) (v uint64, n int) {
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// modulePath is the simulator's module path; frames from its packages are
// the ones a sample is attributed to.
const modulePath = "agilepaging"

// layerOf names the layer a function belongs to and reports whether the
// function is this repository's code. The root package is "facade" and the
// benchmark's own package main is "bench"; every other package of the
// module is named by its last path element (agilepaging/internal/tlb is
// "tlb"), so a package that does not exist yet still gets its own row.
func layerOf(fn string) (string, bool) {
	if i := strings.IndexByte(fn, '['); i >= 0 { // generic instantiation
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "", false
	}
	pkg := fn[:slash+1+dot]
	switch {
	case pkg == "main":
		return "bench", true
	case pkg == modulePath:
		return "facade", true
	case strings.HasPrefix(pkg, modulePath+"/"):
		return pkg[strings.LastIndexByte(pkg, '/')+1:], true
	}
	return "", false
}

// foldLayers attributes each sample's time to the innermost frame from this
// repository, so library time lands on the caller that asked for it: fmt
// and crypto/sha256 under repcache's key hashing count as repcache, math
// under the generator counts as workload. Samples with no such frame (the
// garbage collector, the scheduler) count as runtime.
func foldLayers(samples []stackSample) map[string]int64 {
	out := map[string]int64{}
	for _, s := range samples {
		layer := "runtime"
		for _, fn := range s.stack {
			if l, ok := layerOf(fn); ok {
				layer = l
				break
			}
		}
		out[layer] += s.ns
	}
	return out
}
