package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// This file is a small reader for the pprof profile.proto format, enough to
// turn a runtime/pprof CPU profile into call stacks with sample weights.
// It exists so the benchmark can attribute host CPU to layers without any
// dependency outside the standard library. Only the fields needed for
// that are decoded; everything else is skipped by wire type.

// frame is one function on a sampled stack.
type frame struct {
	Func string // fully qualified, e.g. dilos/internal/sim.(*Proc).yield
	File string
}

// stackSample is one profile sample: frames from the leaf outwards (inlined
// callees first, as pprof orders them) and the sample's weight.
type stackSample struct {
	Frames []frame
	Value  int64 // CPU nanoseconds
	Count  int64 // raw samples behind Value
}

// protobuf wire types
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var errTruncated = errors.New("profile: truncated message")

type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflows 64 bits")
}

// field reads the next field header and its payload: v for varint fields,
// data for length-delimited ones. Fixed-width fields are skipped.
func (p *pbuf) field() (num int, wire int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case wireVarint:
		v, err = p.varint()
	case wire64:
		err = p.skip(8)
	case wire32:
		err = p.skip(4)
	case wireBytes:
		var n uint64
		if n, err = p.varint(); err != nil {
			break
		}
		if n > uint64(len(p.b)) {
			err = errTruncated
			break
		}
		data, p.b = p.b[:n], p.b[n:]
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	return num, wire, v, data, err
}

func (p *pbuf) skip(n int) error {
	if len(p.b) < n {
		return errTruncated
	}
	p.b = p.b[n:]
	return nil
}

// repeatedVarint appends a repeated integer field's values, which arrive
// either packed into one length-delimited payload or one varint at a time.
func repeatedVarint(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == wireVarint {
		return append(dst, v), nil
	}
	p := pbuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

type pbSample struct {
	locs   []uint64
	values []uint64
}

type pbFunc struct{ name, file uint64 }

// parseProfile decodes a (possibly gzip-compressed) profile.proto. The
// weight of each sample is its last value, which in a Go CPU profile is
// CPU nanoseconds (the first is the raw sample count).
func parseProfile(raw []byte) ([]stackSample, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	var (
		samples []pbSample
		locs    = map[uint64][]uint64{} // location id → function ids, leaf first
		funcs   = map[uint64]pbFunc{}
		strs    []string
	)
	p := pbuf{raw}
	for len(p.b) > 0 {
		num, _, _, data, err := p.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			var s pbSample
			q := pbuf{data}
			for len(q.b) > 0 {
				n, w, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = repeatedVarint(s.locs, w, v, d)
				case 2:
					s.values, err = repeatedVarint(s.values, w, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, _, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					l := pbuf{d}
					for len(l.b) > 0 {
						ln, _, lv, _, err := l.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locs[id] = fns
		case 5: // Function
			var id uint64
			var f pbFunc
			q := pbuf{data}
			for len(q.b) > 0 {
				n, _, v, _, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					f.name = v
				case 4:
					f.file = v
				}
			}
			funcs[id] = f
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ss := stackSample{Value: int64(s.values[len(s.values)-1]), Count: int64(s.values[0])}
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				f := funcs[fid]
				ss.Frames = append(ss.Frames, frame{Func: str(f.name), File: str(f.file)})
			}
		}
		out = append(out, ss)
	}
	return out, nil
}
