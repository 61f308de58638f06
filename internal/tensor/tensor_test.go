package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatMulKnown(t *testing.T) {
	a := FromRows([][]float32{{1, 2}, {3, 4}})
	b := FromRows([][]float32{{5, 6}, {7, 8}})
	c := MatMul(a, b)
	want := FromRows([][]float32{{19, 22}, {43, 50}})
	if MaxAbsDiff(c, want) != 0 {
		t.Fatalf("got %v", c.Data)
	}
}

func TestMatMulIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(16)
		a := RandNormal(rng, n, n, 1)
		id := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			id.Set(i, i, 1)
		}
		return MaxAbsDiff(MatMul(a, id), a) == 0 && MaxAbsDiff(MatMul(id, a), a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMatMulTransposeProperty(t *testing.T) {
	// (A·B)^T == B^T·A^T up to float32 rounding.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		m, k, n := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a := RandNormal(rng, m, k, 1)
		b := RandNormal(rng, k, n, 1)
		lhs := MatMul(a, b).T()
		rhs := MatMul(b.T(), a.T())
		if MaxAbsDiff(lhs, rhs) > 1e-5 {
			t.Fatalf("transpose identity violated: %v", MaxAbsDiff(lhs, rhs))
		}
	}
}

func TestShapePanics(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	for name, f := range map[string]func(){
		"matmul":  func() { MatMul(a, b) },
		"diff":    func() { MaxAbsDiff(a, NewMatrix(3, 2)) },
		"negdims": func() { NewMatrix(-1, 2) },
		"ragged":  func() { FromRows([][]float32{{1}, {1, 2}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestFrobenius(t *testing.T) {
	a := FromRows([][]float32{{3, 4}})
	if math.Abs(a.Frobenius()-5) > 1e-12 {
		t.Errorf("frobenius = %v", a.Frobenius())
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows != 0 || m.Cols != 0 {
		t.Errorf("empty: %dx%d", m.Rows, m.Cols)
	}
}

func TestMatMulIntoMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		a := RandNormal(rng, 1+rng.Intn(8), 1+rng.Intn(8), 1)
		b := RandNormal(rng, a.Cols, 1+rng.Intn(8), 1)
		want := MatMul(a, b)
		dst := NewMatrix(a.Rows, b.Cols)
		// Poison dst to prove it is fully overwritten.
		for i := range dst.Data {
			dst.Data[i] = 1e30
		}
		got := MatMulInto(dst, a, b)
		if got != dst {
			t.Fatal("MatMulInto must return dst")
		}
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("trial %d element %d: %v != %v", trial, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMatMulIntoValidatesDst(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mis-sized dst")
		}
	}()
	MatMulInto(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(3, 4))
}

// TestRMSNormRowMatchesSeedFormula pins the shared helper to the exact
// formula both the functional decoder and the accuracy proxy used before
// deduplication (sqrt(mean(x²) + 1e-8) with float64 accumulation), so the
// single implementation keeps both call sites byte-identical to the seed.
func TestRMSNormRowMatchesSeedFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(64)
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.NormFloat64() * 3)
		}
		want := append([]float32(nil), x...)
		ss := 0.0
		for _, v := range want {
			ss += float64(v) * float64(v)
		}
		rms := math.Sqrt(ss/float64(len(want)) + 1e-8)
		for i := range want {
			want[i] = float32(float64(want[i]) / rms)
		}
		RMSNormRow(x)
		for i := range x {
			if math.Float32bits(x[i]) != math.Float32bits(want[i]) {
				t.Fatalf("trial %d element %d: %v != %v", trial, i, x[i], want[i])
			}
		}
	}
}
