package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
)

func startProfile(w io.Writer) error { return pprof.StartCPUProfile(w) }

func stopProfile() { pprof.StopCPUProfile() }

// otherLimitPct is how much of the sampled CPU the fold may leave in
// cpu_share.other, the samples no bucket claims.
const otherLimitPct = 10

// recordProfile writes the CPU profile under cfg.out, folds it into
// cpu_share.* and checks that the buckets cover the profile: at most
// otherLimitPct of the CPU may fall outside every named bucket.
func recordProfile(rep *report, prof []byte, cfg runConfig, tag string) error {
	path := filepath.Join(cfg.out, fmt.Sprintf("%s-%s-seed%d.pprof", cfg.workload, tag, cfg.seed))
	if err := os.WriteFile(path, prof, 0o644); err != nil {
		return err
	}
	shares, samples, err := foldProfile(prof)
	if err != nil {
		return fmt.Errorf("fold %s: %w", path, err)
	}
	for _, b := range cpuBuckets {
		rep.layer["cpu_share."+b] = value{v: shares[b], n: samples}
	}
	rep.check("cpu_fold_covers_profile", samples > 0 && shares["other"] <= otherLimitPct,
		"%.2f%% of %d profile samples fall outside every cpu_share bucket (limit %d%%)",
		shares["other"], samples, otherLimitPct)
	return nil
}

// foldProfile reads a gzip-compressed pprof CPU profile and returns each
// cpu bucket's share of the sampled CPU time in percent, plus the sample
// count. A sample is charged to the innermost frame that belongs to a
// named bucket, so runtime helpers (memmove, mallocgc) count toward the
// package that called them; samples with no such frame go to gc_runtime
// when their leaf is in the Go runtime, else to other.
func foldProfile(data []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	vi := len(p.sampleTypes) - 1 // cpu nanoseconds is the last sample type
	totals := map[string]float64{}
	total := 0.0
	for _, s := range p.samples {
		if vi < 0 || vi >= len(s.values) {
			return nil, 0, errors.New("sample without a cpu value")
		}
		v := float64(s.values[vi])
		totals[p.bucketOf(s.locations)] += v
		total += v
	}
	shares := map[string]float64{}
	for _, b := range cpuBuckets {
		if total > 0 {
			shares[b] = 100 * totals[b] / total
		}
	}
	return shares, len(p.samples), nil
}

// pkgBucket maps a Go function name to its cpu bucket, or "" when the
// package has no bucket of its own.
func pkgBucket(fn string) string {
	pkg := fn
	if slash := strings.LastIndexByte(pkg, '/'); slash >= 0 {
		if dot := strings.IndexByte(pkg[slash:], '.'); dot >= 0 {
			pkg = pkg[:slash+dot]
		}
	} else if dot := strings.IndexByte(pkg, '.'); dot >= 0 {
		pkg = pkg[:dot]
	}
	if name, ok := strings.CutPrefix(pkg, "groundhog/internal/"); ok {
		for _, b := range cpuBuckets {
			if b == name {
				return b
			}
		}
		return ""
	}
	switch {
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "internal/poll" ||
		pkg == "syscall" || pkg == "bufio" || pkg == "crypto/tls":
		return "net"
	}
	return ""
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/")
}

// profile is the part of a pprof profile the fold needs.
type profile struct {
	sampleTypes []int64
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> name index in strings
	strings     []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

func (p *profile) fnName(fid uint64) string {
	if i, ok := p.functions[fid]; ok && i >= 0 && int(i) < len(p.strings) {
		return p.strings[i]
	}
	return ""
}

func (p *profile) bucketOf(locs []uint64) string {
	leaf := ""
	for _, l := range locs {
		for _, fid := range p.locations[l] {
			name := p.fnName(fid)
			if leaf == "" {
				leaf = name
			}
			if b := pkgBucket(name); b != "" {
				return b
			}
		}
	}
	if isRuntime(leaf) {
		return "gc_runtime"
	}
	return "other"
}

// parseProfile decodes the protobuf fields of profile.proto the fold uses:
// sample_type (1), sample (2), location (4), function (5), string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case 1:
			p.sampleTypes = append(p.sampleTypes, 0)
		case 2:
			var s sample
			if err := eachField(sub, func(n, w int, v uint64, sb []byte) error {
				switch n {
				case 1:
					s.locations = appendVarints(s.locations, w, v, sb)
				case 2:
					for _, x := range appendVarints(nil, w, v, sb) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := eachField(sub, func(n, w int, v uint64, sb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line{function_id = 1}
					return eachField(sb, func(n2, w2 int, v2 uint64, _ []byte) error {
						if n2 == 1 {
							fns = append(fns, v2)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locations[id] = fns
		case 5:
			var id uint64
			var name int64
			if err := eachField(sub, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.functions[id] = name
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated varint field's values, packed (wire
// type 2) or not (wire type 0).
func appendVarints(dst []uint64, wire int, v uint64, packed []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// eachField walks a protobuf message, calling f with each field's number,
// wire type, and its varint value (wire 0) or bytes (wire 2).
func eachField(b []byte, f func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}
