package roaring

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAddContains(t *testing.T) {
	b := New()
	values := []uint32{0, 1, 65535, 65536, 1 << 20, 1<<31 + 5, 0xFFFFFFFF}
	for _, v := range values {
		b.Add(v)
	}
	for _, v := range values {
		if !b.Contains(v) {
			t.Fatalf("missing %d", v)
		}
	}
	if b.Contains(2) || b.Contains(65537) {
		t.Fatal("contains value never added")
	}
	if b.Cardinality() != len(values) {
		t.Fatalf("cardinality %d, want %d", b.Cardinality(), len(values))
	}
	b.Add(0) // duplicate
	if b.Cardinality() != len(values) {
		t.Fatal("duplicate add changed cardinality")
	}
}

func TestArrayToBitmapPromotion(t *testing.T) {
	b := New()
	for i := uint32(0); i < 5000; i++ {
		b.Add(i * 2)
	}
	if b.Cardinality() != 5000 {
		t.Fatalf("cardinality %d", b.Cardinality())
	}
	if b.containers[0].kind() != kindBitmap {
		t.Fatal("container should have promoted to bitmap")
	}
	for i := uint32(0); i < 5000; i++ {
		if !b.Contains(i * 2) {
			t.Fatalf("missing %d after promotion", i*2)
		}
		if b.Contains(i*2 + 1) {
			t.Fatalf("phantom %d after promotion", i*2+1)
		}
	}
}

// TestAndNotDemotion drains a bitmap container below the array limit
// with AndNot: the result is an array container, and a drained one is
// dropped.
func TestAndNotDemotion(t *testing.T) {
	b := FromSlice(rangeOf(0, 6000))
	var evens []uint32
	for i := uint32(0); i < 6000; i += 2 {
		evens = append(evens, i)
	}
	b = AndNot(b, FromSlice(evens))
	if b.Cardinality() != 3000 {
		t.Fatalf("cardinality %d", b.Cardinality())
	}
	if b.containers[0].kind() != kindArray {
		t.Fatal("container should have demoted to array")
	}
	b2 := AndNot(FromSlice([]uint32{5}), FromSlice([]uint32{5, 77}))
	if !b2.IsEmpty() || len(b2.keys) != 0 {
		t.Fatal("empty container should be dropped")
	}
}

func TestForEachOrderAndEarlyStop(t *testing.T) {
	b := FromSlice([]uint32{9, 3, 1 << 17, 5})
	want := []uint32{3, 5, 9, 1 << 17}
	if got := b.ToArray(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ToArray = %v, want %v", got, want)
	}
	var seen []uint32
	b.ForEach(func(v uint32) bool {
		seen = append(seen, v)
		return len(seen) < 2
	})
	if len(seen) != 2 {
		t.Fatalf("early stop failed, saw %v", seen)
	}
}

func TestSetOps(t *testing.T) {
	a := FromSlice([]uint32{1, 2, 3, 100000})
	b := FromSlice([]uint32{2, 3, 4})
	if got := Or(a, b).ToArray(); !reflect.DeepEqual(got, []uint32{1, 2, 3, 4, 100000}) {
		t.Fatalf("Or = %v", got)
	}
	if got := And(a, b).ToArray(); !reflect.DeepEqual(got, []uint32{2, 3}) {
		t.Fatalf("And = %v", got)
	}
	if got := AndNot(a, b).ToArray(); !reflect.DeepEqual(got, []uint32{1, 100000}) {
		t.Fatalf("AndNot = %v", got)
	}
}

func TestRunOptimizeRoundTrip(t *testing.T) {
	b := New()
	b.AddRange(100, 10000) // long run: should become a run container
	b.Add(50000)
	before := b.ToArray()
	b.RunOptimize()
	if b.containers[0].kind() != kindRun {
		t.Fatal("expected run container after RunOptimize")
	}
	if !reflect.DeepEqual(b.ToArray(), before) {
		t.Fatal("RunOptimize changed contents")
	}
	if sz := b.SerializedSize(); sz > 100 {
		t.Fatalf("run-optimized serialized size %d too large for one run", sz)
	}
	// Point update to a run container must still work.
	b.Add(55)
	if !b.Contains(55) || !b.Contains(100) || !b.Contains(9999) {
		t.Fatal("add after run optimize broke contents")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b := New()
	for i := 0; i < 20000; i++ {
		b.Add(rng.Uint32() % 200000)
	}
	b.AddRange(300000, 301000)
	b.RunOptimize()

	data := b.AppendTo(nil)
	if len(data) != b.SerializedSize() {
		t.Fatalf("SerializedSize=%d, actual=%d", b.SerializedSize(), len(data))
	}
	got, used, err := FromBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(data) {
		t.Fatalf("consumed %d of %d", used, len(data))
	}
	if !got.Equals(b) {
		t.Fatal("round trip mismatch")
	}
}

func TestDeserializeCorrupt(t *testing.T) {
	b := FromSlice([]uint32{1, 2, 3, 70000})
	data := b.AppendTo(nil)
	for cut := 0; cut < len(data); cut++ {
		if cut == 2 {
			continue // 2-byte prefix saying "0 containers" is valid
		}
		if _, _, err := FromBytes(data[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
	bad := append([]byte(nil), data...)
	bad[4] = 9 // invalid container kind
	if _, _, err := FromBytes(bad); err == nil {
		t.Fatal("bad kind not detected")
	}
}

func TestQuickSetSemantics(t *testing.T) {
	f := func(values []uint32) bool {
		b := FromSlice(values)
		ref := map[uint32]bool{}
		for _, v := range values {
			ref[v] = true
		}
		if b.Cardinality() != len(ref) {
			return false
		}
		for v := range ref {
			if !b.Contains(v) {
				return false
			}
		}
		data := b.AppendTo(nil)
		got, _, err := FromBytes(data)
		return err == nil && got.Equals(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
