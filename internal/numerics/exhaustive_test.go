package numerics

import (
	"math"
	"testing"
)

// TestBF16ExhaustiveRoundTrip decodes every one of the 65536 BF16 code
// points and re-encodes it; the codec must be the identity on its own
// image (NaN payloads may canonicalize but must stay NaN).
func TestBF16ExhaustiveRoundTrip(t *testing.T) {
	for c := 0; c < 1<<16; c++ {
		v := BF16(c).Float32()
		back := BF16FromFloat32(v)
		if math.IsNaN(float64(v)) {
			if !math.IsNaN(float64(back.Float32())) {
				t.Fatalf("code %#04x: NaN lost", c)
			}
			continue
		}
		if back.Float32() != v {
			t.Fatalf("code %#04x: %v -> %v", c, v, back.Float32())
		}
	}
}

// TestSplitExhaustiveOverBF16 splits every finite normal BF16 value at
// every supported mantissa width and checks the reconstruction bound and
// exponent consistency.
func TestSplitExhaustiveOverBF16(t *testing.T) {
	for _, mb := range []int{3, 5, 7} {
		for c := 0; c < 1<<16; c++ {
			v := BF16(c).Float32()
			if Classify(v) != ClassNormal {
				continue
			}
			f := Split(v, mb)
			if f.Class == ClassZero {
				continue // subnormal flush
			}
			if f.Class != ClassNormal {
				t.Fatalf("mb=%d code %#04x (%v): class %v", mb, c, v, f.Class)
			}
			r := f.Value()
			rel := math.Abs(r-float64(v)) / math.Abs(float64(v))
			if rel > math.Ldexp(1, -(mb+1))+1e-12 {
				t.Fatalf("mb=%d %v: rel %v", mb, v, rel)
			}
			// The reconstructed exponent is the true binary exponent.
			if want := math.Ilogb(math.Abs(r)); want != f.Exp {
				t.Fatalf("mb=%d %v: exp %d vs ilogb %d", mb, v, f.Exp, want)
			}
		}
	}
}
