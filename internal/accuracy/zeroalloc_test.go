package accuracy

import (
	"testing"

	"mugi/internal/core"
	"mugi/internal/dist"
	"mugi/internal/nonlinear"
)

// TestLossGoldenSeed pins Loss to values captured from the seed
// implementation before the scratch-pool/loop-restructure refactor: the
// optimized forward pass must be bit-identical.
func TestLossGoldenSeed(t *testing.T) {
	cases := []struct {
		family     dist.Family
		exact, vlp float64
	}{
		{dist.Llama2, 2.1177118031097177, 2.1518492679470471},
		{dist.Whisper, 2.1100853504952348, 2.1129385298899961},
	}
	for _, tc := range cases {
		p := NewProxy(DefaultProxy(tc.family))
		exact := p.Loss(Uniform(ExactImpl(p.Config().Activation)))
		if exact != tc.exact {
			t.Errorf("%v exact loss %.17g, want %.17g", tc.family, exact, tc.exact)
		}
		vlp := p.Loss(Uniform(VLPImpl(
			core.LUTSizeConfig(nonlinear.Exp, 16, 4),
			core.LUTSizeConfig(p.Config().Activation, 16, 4),
		)))
		if vlp != tc.vlp {
			t.Errorf("%v VLP loss %.17g, want %.17g", tc.family, vlp, tc.vlp)
		}
	}
}

// TestLossZeroAlloc asserts a warmed Loss runs entirely out of the
// proxy's scratch pool.
func TestLossZeroAlloc(t *testing.T) {
	p := NewProxy(DefaultProxy(dist.Llama2))
	impl := Uniform(ExactImpl(p.Config().Activation))
	p.Loss(impl) // warm the pool
	allocs := testing.AllocsPerRun(10, func() {
		p.Loss(impl)
	})
	if allocs != 0 {
		t.Fatalf("warmed Loss allocated %v times per run", allocs)
	}
}
