package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"time"
)

// parseCPUProfile decodes a gzipped pprof CPU profile, as written by
// runtime/pprof, and returns the sampled CPU time of each leaf function
// (self time). Only the fields this needs are read: samples, locations,
// functions and the string table.
func parseCPUProfile(gz []byte) (map[string]time.Duration, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		leaf uint64
		ns   int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> innermost function id
		funcName = map[uint64]int64{}  // function id -> string index
		strs     []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var locs, vals []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = appendRepeated(locs, wire, v, b)
				case 2:
					vals = appendRepeated(vals, wire, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(locs) == 0 || len(vals) < 2 {
				return nil
			}
			s.leaf, s.ns = locs[0], int64(vals[1])
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			first := true
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line: the first entry is the innermost inlined frame.
					if first {
						first = false
						return eachField(b, func(num, wire int, v uint64, b []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]time.Duration{}
	for _, s := range samples {
		name := "?"
		if i, ok := funcName[locFunc[s.leaf]]; ok && int(i) < len(strs) {
			name = strs[i]
		}
		out[name] += time.Duration(s.ns)
	}
	return out, nil
}

// appendRepeated appends a repeated varint field's values, packed or not.
func appendRepeated(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errMalformed = errors.New("malformed protobuf")

// eachField walks the top-level fields of a protobuf message, passing each
// field's number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		tag, n := varint(b)
		if n <= 0 {
			return errMalformed
		}
		b = b[n:]
		num, wire := int(tag>>3), int(tag&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errMalformed
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errMalformed
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errMalformed
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errMalformed
			}
			b = b[4:]
		default:
			return errMalformed
		}
		if err := f(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
