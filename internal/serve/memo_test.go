package serve

import (
	"reflect"
	"sync"
	"testing"

	"mugi/internal/model"
	"mugi/internal/raceflag"
)

// TestStepWorkloadShared: the process-wide memo returns exactly the
// operator list PrefillOps/DecodeOps builds, for every shape, while
// several goroutines race to fill and read the same shards (run it under
// -race), and a hit allocates nothing.
func TestStepWorkloadShared(t *testing.T) {
	models := []model.Config{model.Llama2_7B, model.Llama2_70B_GQA}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, m := range models {
				for _, decode := range []bool{false, true} {
					for batch := 1; batch <= 4; batch++ {
						for ctx := 32; ctx <= 512; ctx += 32 {
							got := StepWorkload(m, decode, batch, ctx)
							want := m.PrefillOps(batch, ctx)
							if decode {
								want = m.DecodeOps(batch, ctx)
							}
							if !reflect.DeepEqual(got, want) {
								t.Errorf("%s decode=%v batch %d ctx %d: memo returned a different workload", m.Name, decode, batch, ctx)
								return
							}
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if raceflag.Enabled {
		return
	}
	if n := testing.AllocsPerRun(100, func() { StepWorkload(model.Llama2_7B, true, 3, 256) }); n != 0 {
		t.Errorf("memo hit allocates %.1f times, want 0", n)
	}
}
