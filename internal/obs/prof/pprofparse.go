package prof

// A minimal reader for the pprof profile.proto wire format, written against
// the protobuf wire spec directly — the repo is zero-dependency, so it cannot
// import github.com/google/pprof/profile. Only the fields the continuous
// profiler's label fold and the label-propagation tests need are decoded:
// sample types, samples (stacks, values, string labels), locations,
// functions, and the string table. Mappings, line numbers, and numeric
// labels are skipped.
//
// Wire format refresher (proto3): a message is a sequence of
// (tag, payload) pairs where tag = field_number<<3 | wire_type. Wire types:
// 0 = varint, 1 = fixed64, 2 = length-delimited, 5 = fixed32. Repeated
// scalar fields may arrive packed (one length-delimited blob of varints) or
// unpacked (one varint per tag); both forms appear in real profiles, so both
// are handled.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
)

// ValueType is one sample-value dimension, e.g. {Type: "cpu", Unit: "nanoseconds"}.
type ValueType struct {
	Type string `json:"type"`
	Unit string `json:"unit"`
}

// Sample is one profile sample: a leaf-first stack of resolved function
// names, one value per sample type, and any string-valued pprof labels.
type Sample struct {
	Stack []string
	Value []int64
	Label map[string]string
}

// Profile is the decoded subset of a pprof profile.
type Profile struct {
	SampleType []ValueType
	Samples    []Sample
	Period     int64
	PeriodType ValueType
}

// ValueIndex returns the index of the sample-value dimension matching typ
// (and unit, when non-empty), or -1.
func (p *Profile) ValueIndex(typ, unit string) int {
	for i, st := range p.SampleType {
		if st.Type == typ && (unit == "" || st.Unit == unit) {
			return i
		}
	}
	return -1
}

// gzipMagic is the two-byte gzip header; go's pprof writers always compress.
var gzipMagic = []byte{0x1f, 0x8b}

// ParseProfile decodes a (possibly gzipped) pprof profile.
func ParseProfile(data []byte) (*Profile, error) {
	if bytes.HasPrefix(data, gzipMagic) {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("prof: gunzip: %w", err)
		}
		raw, err := io.ReadAll(zr)
		zr.Close()
		if err != nil {
			return nil, fmt.Errorf("prof: gunzip: %w", err)
		}
		data = raw
	}
	return parseProfileRaw(data)
}

// --- raw decode ----------------------------------------------------------

type rawLabel struct{ key, str uint64 } // indices into the string table

type rawSample struct {
	locs   []uint64
	values []int64
	labels []rawLabel
}

type rawValueType struct{ typ, unit uint64 }

func parseProfileRaw(data []byte) (*Profile, error) {
	var (
		sampleTypes []rawValueType
		periodType  rawValueType
		period      int64
		samples     []rawSample
		locLines    = map[uint64][]uint64{} // location id -> function ids, leaf-first
		funcNames   = map[uint64]uint64{}   // function id -> name string index
		strtab      []string
	)
	err := walkFields(data, func(num int, wire int, payload []byte, v uint64) error {
		switch num {
		case 1: // sample_type: repeated ValueType
			if wire != 2 {
				return fmt.Errorf("sample_type: wire %d", wire)
			}
			vt, err := parseValueType(payload)
			if err != nil {
				return err
			}
			sampleTypes = append(sampleTypes, vt)
		case 2: // sample: repeated Sample
			if wire != 2 {
				return fmt.Errorf("sample: wire %d", wire)
			}
			s, err := parseSample(payload)
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location: repeated Location
			if wire != 2 {
				return fmt.Errorf("location: wire %d", wire)
			}
			id, fns, err := parseLocation(payload)
			if err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // function: repeated Function
			if wire != 2 {
				return fmt.Errorf("function: wire %d", wire)
			}
			id, name, err := parseFunction(payload)
			if err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table: repeated string
			if wire != 2 {
				return fmt.Errorf("string_table: wire %d", wire)
			}
			strtab = append(strtab, string(payload))
		case 11: // period_type
			if wire == 2 {
				vt, err := parseValueType(payload)
				if err != nil {
					return err
				}
				periodType = vt
			}
		case 12: // period
			if wire == 0 {
				period = int64(v)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("prof: parse profile: %w", err)
	}

	str := func(i uint64) string {
		if i < uint64(len(strtab)) {
			return strtab[i]
		}
		return ""
	}
	out := &Profile{
		Period:     period,
		PeriodType: ValueType{Type: str(periodType.typ), Unit: str(periodType.unit)},
	}
	for _, vt := range sampleTypes {
		out.SampleType = append(out.SampleType, ValueType{Type: str(vt.typ), Unit: str(vt.unit)})
	}
	out.Samples = make([]Sample, 0, len(samples))
	for _, rs := range samples {
		s := Sample{Value: rs.values}
		for _, loc := range rs.locs {
			// A location expands to one name per Line entry; the runtime
			// orders lines leaf-first within an inlined call stack, matching
			// the leaf-first location order.
			for _, fid := range locLines[loc] {
				s.Stack = append(s.Stack, str(funcNames[fid]))
			}
		}
		if len(rs.labels) > 0 {
			s.Label = make(map[string]string, len(rs.labels))
			for _, l := range rs.labels {
				if l.str != 0 { // str == 0 means a numeric label; skipped
					s.Label[str(l.key)] = str(l.str)
				}
			}
		}
		out.Samples = append(out.Samples, s)
	}
	return out, nil
}

func parseValueType(data []byte) (rawValueType, error) {
	var vt rawValueType
	err := walkFields(data, func(num, wire int, payload []byte, v uint64) error {
		switch num {
		case 1:
			vt.typ = v
		case 2:
			vt.unit = v
		}
		return nil
	})
	return vt, err
}

func parseSample(data []byte) (rawSample, error) {
	var s rawSample
	err := walkFields(data, func(num, wire int, payload []byte, v uint64) error {
		switch num {
		case 1: // location_id: repeated uint64 (packed or not)
			switch wire {
			case 0:
				s.locs = append(s.locs, v)
			case 2:
				vals, err := unpackVarints(payload)
				if err != nil {
					return err
				}
				s.locs = append(s.locs, vals...)
			}
		case 2: // value: repeated int64 (packed or not)
			switch wire {
			case 0:
				s.values = append(s.values, int64(v))
			case 2:
				vals, err := unpackVarints(payload)
				if err != nil {
					return err
				}
				for _, u := range vals {
					s.values = append(s.values, int64(u))
				}
			}
		case 3: // label: repeated Label
			if wire != 2 {
				return nil
			}
			var l rawLabel
			err := walkFields(payload, func(n, w int, p []byte, lv uint64) error {
				switch n {
				case 1:
					l.key = lv
				case 2:
					l.str = lv
				}
				return nil
			})
			if err != nil {
				return err
			}
			s.labels = append(s.labels, l)
		}
		return nil
	})
	return s, err
}

func parseLocation(data []byte) (id uint64, fns []uint64, err error) {
	err = walkFields(data, func(num, wire int, payload []byte, v uint64) error {
		switch num {
		case 1: // id
			id = v
		case 4: // line: repeated Line
			if wire != 2 {
				return nil
			}
			return walkFields(payload, func(n, w int, p []byte, lv uint64) error {
				if n == 1 { // function_id
					fns = append(fns, lv)
				}
				return nil
			})
		}
		return nil
	})
	return id, fns, err
}

func parseFunction(data []byte) (id, name uint64, err error) {
	err = walkFields(data, func(num, wire int, payload []byte, v uint64) error {
		switch num {
		case 1:
			id = v
		case 2:
			name = v
		}
		return nil
	})
	return id, name, err
}

// walkFields iterates the (tag, payload) pairs of one encoded message.
// Length-delimited payloads arrive in payload; varints in v. fixed64/fixed32
// fields are skipped over but reported with v = 0 (no caller needs them).
func walkFields(data []byte, fn func(num, wire int, payload []byte, v uint64) error) error {
	i := 0
	for i < len(data) {
		tag, n := binary.Uvarint(data[i:])
		if n <= 0 {
			return fmt.Errorf("bad tag varint at %d", i)
		}
		i += n
		num := int(tag >> 3)
		wire := int(tag & 7)
		var payload []byte
		var v uint64
		switch wire {
		case 0:
			v, n = binary.Uvarint(data[i:])
			if n <= 0 {
				return fmt.Errorf("bad varint at %d", i)
			}
			i += n
		case 1:
			if i+8 > len(data) {
				return fmt.Errorf("truncated fixed64 at %d", i)
			}
			i += 8
		case 2:
			ln, n := binary.Uvarint(data[i:])
			if n <= 0 {
				return fmt.Errorf("bad length varint at %d", i)
			}
			i += n
			if uint64(len(data)-i) < ln {
				return fmt.Errorf("truncated field %d at %d", num, i)
			}
			payload = data[i : i+int(ln)]
			i += int(ln)
		case 5:
			if i+4 > len(data) {
				return fmt.Errorf("truncated fixed32 at %d", i)
			}
			i += 4
		default:
			return fmt.Errorf("unsupported wire type %d for field %d", wire, num)
		}
		if err := fn(num, wire, payload, v); err != nil {
			return err
		}
	}
	return nil
}

// unpackVarints decodes a packed repeated-varint payload.
func unpackVarints(data []byte) ([]uint64, error) {
	var out []uint64
	i := 0
	for i < len(data) {
		v, n := binary.Uvarint(data[i:])
		if n <= 0 {
			return nil, fmt.Errorf("bad packed varint at %d", i)
		}
		out = append(out, v)
		i += n
	}
	return out, nil
}
