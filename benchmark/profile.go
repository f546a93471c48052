package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the simulator's modules, named by their package under
// repro/internal. A profile sample belongs to the innermost frame of one of
// them; frames of other internal packages (backends, memsys, ...) belong
// to their caller.
var layers = []string{"sim", "network", "nic", "gpu", "portals", "core", "collective", "jacobi", "health", "fault", "audit", "node"}

// Buckets outside the layers: the benchmark's own code, and three Go
// runtime pseudo-layers.
const (
	bucketBenchmark = "benchmark"
	bucketSched     = "runtime.sched"
	bucketGC        = "runtime.gc"
	bucketOther     = "runtime.other"
)

func cpuBuckets() []string {
	return append(append([]string(nil), layers...), bucketBenchmark, bucketSched, bucketGC, bucketOther)
}

// layerShares decodes a runtime/pprof CPU profile and returns the percent
// of samples in each bucket.
func layerShares(r io.Reader) (map[string]float64, error) {
	stacks, err := decodeProfile(r)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	for _, b := range cpuBuckets() {
		shares[b] = 0
	}
	var total int64
	for _, s := range stacks {
		total += s.count
	}
	if total == 0 {
		return nil, errors.New("profile has no samples")
	}
	for _, s := range stacks {
		shares[attribute(s.frames)] += 100 * float64(s.count) / float64(total)
	}
	return shares, nil
}

// packageOf returns the import path of a function symbol such as
// "repro/internal/sim.(*Engine).Run".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func isRuntime(fn string) bool {
	pkg := packageOf(fn)
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// gcFrames and schedFrames name the runtime functions that put a sample in
// the GC or scheduler bucket: garbage collection anywhere on the stack, or
// goroutine parking, channel hand-off and scheduling at its leaf end.
var (
	gcFrames    = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.markroot", "runtime.scanobject", "runtime.scanblock", "runtime.scanstack", "runtime.greyobject", "runtime.wbBuf", "runtime.(*gcWork)", "runtime._GC"}
	schedFrames = []string{"chansend", "chanrecv", "selectgo", "gopark", "goready", "park_m", "runtime.schedule", "findRunnable", "runtime.mcall", "stopm", "startm", "wakep", "futex", "notesleep", "notewakeup", "runqsteal", "runqgrab", "gosched", "goexit0", "runtime.execute", "runtime.gogo", "casgstatus", "runtime.lock2", "runtime.unlock2", "runtime.mstart", "netpoll", "usleep", "osyield", "procyield", "runtime.ready", "runtime.send", "runtime.recv"}
)

func matchesAny(fn string, names []string) bool {
	for _, n := range names {
		if strings.Contains(fn, n) {
			return true
		}
	}
	return false
}

// attribute assigns one sample's stack (leaf first) to a bucket.
func attribute(frames []string) string {
	for _, fn := range frames {
		if isRuntime(fn) && matchesAny(fn, gcFrames) {
			return bucketGC
		}
	}
	for _, fn := range frames {
		if !isRuntime(fn) {
			break
		}
		if matchesAny(fn, schedFrames) {
			return bucketSched
		}
	}
	for _, fn := range frames {
		pkg := packageOf(fn)
		if layer, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
			layer = layer[strings.LastIndex(layer, "/")+1:]
			for _, l := range layers {
				if l == layer {
					return l
				}
			}
			continue
		}
		if pkg == "main" || pkg == "repro/benchmark" {
			return bucketBenchmark
		}
	}
	return bucketOther
}

// profileStack is one sample of a profile: its frames, leaf first, with
// inlined calls expanded, and how many times it was sampled.
type profileStack struct {
	frames []string
	count  int64
}

// decodeProfile reads the gzipped profile.proto that runtime/pprof writes.
// It reads just the fields attribution needs: Profile.sample (2),
// Profile.location (4), Profile.function (5) and Profile.string_table (6).
func decodeProfile(r io.Reader) ([]profileStack, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string table index
		strs      []string
	)
	err = forEachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s sample
			var vals []uint64 // the sample count, then CPU nanoseconds
			err := forEachField(b, func(f int, v uint64, b []byte) (err error) {
				switch f {
				case 1:
					s.locs, err = appendPacked(s.locs, v, b)
				case 2:
					vals, err = appendPacked(vals, v, b)
				}
				return err
			})
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := forEachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return forEachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := forEachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	stacks := make([]profileStack, 0, len(samples))
	for _, s := range samples {
		st := profileStack{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i >= 0 && i < int64(len(strs)) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		stacks = append(stacks, st)
	}
	return stacks, nil
}

// forEachField walks the fields of one protobuf message. fn gets a varint
// field's value in v, or a length-delimited field's bytes in b.
func forEachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field := int(key >> 3)
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", key&7)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, given either one value (v)
// or a packed run of them (b).
func appendPacked(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errors.New("profile: bad packed varint")
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
