package roaring

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
)

// boundarySets builds adversarial value sets that cross every container
// representation and every 16-bit key edge: values hugging 0xFFFF/0x10000
// boundaries, dense spans that promote array→bitmap, long runs that
// RunOptimize converts, and sparse high-key outliers.
func boundarySets(seed int64) [][]uint32 {
	rng := rand.New(rand.NewSource(seed))
	var sets [][]uint32

	// Edge values around every representable container boundary we use.
	edges := []uint32{
		0, 1, 0xFFFE, 0xFFFF, 0x10000, 0x10001,
		0x1FFFF, 0x20000, 0x2FFFF, 0x30000,
		0xFFFF0000, 0xFFFFFFFE, 0xFFFFFFFF,
	}
	sets = append(sets, edges)

	// A dense span straddling a key boundary: promotes to bitmap containers
	// on both sides of the 0xFFFF/0x10000 crossing.
	var dense []uint32
	for v := uint32(0xFFFF - 5000); v < 0x10000+5000; v++ {
		dense = append(dense, v)
	}
	sets = append(sets, dense)

	// Runs separated by single-value gaps: RunOptimize turns these into
	// run containers whose intervals end exactly at container capacity.
	var runs []uint32
	for base := uint32(0); base < 3; base++ {
		start := base << 16
		for v := start; v < start+300; v++ {
			runs = append(runs, v)
		}
		runs = append(runs, start+0xFFFF) // last slot of the container
	}
	sets = append(sets, runs)

	// Random mixtures clustered near boundaries, plus uniform noise.
	for i := 0; i < 4; i++ {
		var mix []uint32
		for j := 0; j < 2000; j++ {
			switch rng.Intn(3) {
			case 0:
				mix = append(mix, uint32(0xFFFF)+uint32(rng.Intn(64))-32)
			case 1:
				mix = append(mix, rng.Uint32()%0x40000)
			default:
				mix = append(mix, rng.Uint32())
			}
		}
		sets = append(sets, mix)
	}
	// Empty and singleton sets keep the degenerate shapes covered.
	sets = append(sets, nil, []uint32{0x10000})
	return sets
}

func bitmapOf(values []uint32, optimize bool) (*Bitmap, map[uint32]bool) {
	b := New()
	ref := make(map[uint32]bool, len(values))
	for _, v := range values {
		b.Add(v)
		ref[v] = true
	}
	if optimize {
		b.RunOptimize()
	}
	return b, ref
}

func sortedKeys(m map[uint32]bool) []uint32 {
	out := make([]uint32, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func assertEqualsRef(t *testing.T, name string, got *Bitmap, want map[uint32]bool) {
	t.Helper()
	if got.Cardinality() != len(want) {
		t.Fatalf("%s: cardinality %d, want %d", name, got.Cardinality(), len(want))
	}
	for _, v := range sortedKeys(want) {
		if !got.Contains(v) {
			t.Fatalf("%s: missing %#x", name, v)
		}
	}
	// And the other direction: nothing extra.
	got.ForEach(func(v uint32) bool {
		if !want[v] {
			t.Fatalf("%s: extra %#x", name, v)
		}
		return true
	})
}

// TestSetOpsBoundaryEquivalence checks And/Or/AndNot against a map-based
// reference across every pairing of the adversarial boundary sets, with
// and without run optimization on either operand.
func TestSetOpsBoundaryEquivalence(t *testing.T) {
	sets := boundarySets(7)
	for i, va := range sets {
		for j, vb := range sets {
			for _, optA := range []bool{false, true} {
				for _, optB := range []bool{false, true} {
					a, refA := bitmapOf(va, optA)
					b, refB := bitmapOf(vb, optB)

					or := make(map[uint32]bool)
					and := make(map[uint32]bool)
					andNot := make(map[uint32]bool)
					for v := range refA {
						or[v] = true
						if refB[v] {
							and[v] = true
						} else {
							andNot[v] = true
						}
					}
					for v := range refB {
						or[v] = true
					}

					tag := func(op string) string {
						return op
					}
					assertEqualsRef(t, tag("Or"), Or(a, b), or)
					assertEqualsRef(t, tag("And"), And(a, b), and)
					assertEqualsRef(t, tag("AndNot"), AndNot(a, b), andNot)

					// Operands must be untouched by the set operations.
					assertEqualsRef(t, "operand a", a, refA)
					assertEqualsRef(t, "operand b", b, refB)
					_ = i
					_ = j
				}
			}
		}
	}
}

// TestIsEmptyShortCircuit pins the container-directory fast path: IsEmpty
// must agree with Cardinality()==0 through adds, removes that drain
// containers, and serialization round trips.
func TestIsEmptyShortCircuit(t *testing.T) {
	b := New()
	if !b.IsEmpty() {
		t.Fatal("new bitmap not empty")
	}
	values := []uint32{0, 0xFFFF, 0x10000, 0x12345, 0xFFFFFFFF}
	for _, v := range values {
		b.Add(v)
		if b.IsEmpty() {
			t.Fatalf("IsEmpty true after Add(%#x)", v)
		}
	}
	for _, v := range values {
		b.Remove(v)
	}
	if !b.IsEmpty() {
		t.Fatal("IsEmpty false after removing every value")
	}
	if got := b.Cardinality(); got != 0 {
		t.Fatalf("cardinality %d after removing every value", got)
	}

	// A dense container drained one by one must drop its container entry.
	for v := uint32(0); v < 5000; v++ {
		b.Add(v)
	}
	for v := uint32(0); v < 5000; v++ {
		b.Remove(v)
	}
	if !b.IsEmpty() {
		t.Fatal("IsEmpty false after draining a bitmap container")
	}

	// Round trip of an empty bitmap stays empty.
	rt, _, err := FromBytes(New().AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !rt.IsEmpty() {
		t.Fatal("deserialized empty bitmap not empty")
	}
}

// TestFromBytesDropsEmptyContainers feeds FromBytes a hand-built stream
// holding an empty array container: the value set is empty, so IsEmpty
// must hold even though the wire stream declared a container.
func TestFromBytesDropsEmptyContainers(t *testing.T) {
	var src []byte
	src = binary.LittleEndian.AppendUint16(src, 1) // one container
	src = binary.LittleEndian.AppendUint16(src, 0) // key 0
	src = append(src, 0)                           // kindArray
	src = binary.LittleEndian.AppendUint16(src, 0) // card 0
	b, used, err := FromBytes(src)
	if err != nil {
		t.Fatalf("FromBytes: %v", err)
	}
	if used != len(src) {
		t.Fatalf("consumed %d of %d bytes", used, len(src))
	}
	if !b.IsEmpty() || b.Cardinality() != 0 {
		t.Fatal("empty container leaked into the bitmap")
	}
}

// TestForEachRangeMatchesForEach checks the run iterator against the
// per-value one on every boundary set and container kind: the runs are
// ascending, disjoint, maximal within a chunk, and cover exactly the set;
// stopping early stops.
func TestForEachRangeMatchesForEach(t *testing.T) {
	for si, set := range boundarySets(5) {
		for _, optimize := range []bool{false, true} {
			b, _ := bitmapOf(set, optimize)
			var want [][2]uint64
			b.ForEach(func(v uint32) bool {
				if n := len(want); n > 0 && want[n-1][1] == uint64(v) && v&0xFFFF != 0 {
					want[n-1][1]++
				} else {
					want = append(want, [2]uint64{uint64(v), uint64(v) + 1})
				}
				return true
			})
			var got [][2]uint64
			b.ForEachRange(func(lo, hi uint64) bool {
				got = append(got, [2]uint64{lo, hi})
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("set %d optimize=%v: %d runs, want %d", si, optimize, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("set %d optimize=%v: run %d = %v, want %v", si, optimize, i, got[i], want[i])
				}
			}
			calls := 0
			b.ForEachRange(func(lo, hi uint64) bool { calls++; return false })
			if want := min(len(want), 1); calls != want {
				t.Fatalf("set %d optimize=%v: %d calls after stopping, want %d", si, optimize, calls, want)
			}
		}
	}
}
