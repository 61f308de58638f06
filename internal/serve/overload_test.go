package serve

import (
	"strings"
	"testing"

	"mugi/internal/overload"
	"mugi/internal/runner"
)

// tenantMix is the shared three-class probe mix.
func tenantMix() []TenantSpec {
	return []TenantSpec{
		{Class: overload.Interactive, Share: 0.3},
		{Class: overload.Standard, Share: 0.4},
		{Class: overload.BestEffort, Share: 0.3},
	}
}

func tenantedChatTrace(t *testing.T, kind TraceKind, rate float64, n int) Trace {
	t.Helper()
	tr, err := NewTrace(TraceConfig{Kind: kind, Rate: rate, Requests: n, Seed: 1, Tenants: tenantMix()})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// classBalance asserts the per-class no-silent-drop invariant and that
// the class rows sum back to the report totals.
func classBalance(t *testing.T, rep Report) {
	t.Helper()
	var req, comp, shed, orph int
	for _, c := range overload.Classes() {
		cs := rep.Classes[c]
		if cs.Completed+cs.Shed+cs.Orphaned != cs.Requests {
			t.Errorf("class %v leak: %d + %d + %d != %d", c, cs.Completed, cs.Shed, cs.Orphaned, cs.Requests)
		}
		req += cs.Requests
		comp += cs.Completed
		shed += cs.Shed
		orph += cs.Orphaned
	}
	if req != rep.Requests || comp != rep.Completed || shed != rep.Shed || orph != rep.Orphaned {
		t.Errorf("class sums (%d, %d, %d, %d) disagree with totals (%d, %d, %d, %d)",
			req, comp, shed, orph, rep.Requests, rep.Completed, rep.Shed, rep.Orphaned)
	}
}

// TestAdmissionProtectsInteractive: under a deep overload with a
// bounded queue, the admission controller must evict queued best-effort
// work for arriving interactive work — never the reverse — so the
// interactive class's shed fraction stays strictly below best-effort's.
func TestAdmissionProtectsInteractive(t *testing.T) {
	cfg := baseConfig()
	cfg.MaxQueue = 4
	cfg.Admission = &overload.AdmissionSpec{}
	rep, err := Run(cfg, tenantedChatTrace(t, Poisson, 5, 120))
	if err != nil {
		t.Fatal(err)
	}
	classBalance(t, rep)
	if rep.Evicted == 0 {
		t.Fatal("deep overload with a 4-slot queue evicted nothing")
	}
	ia, be := rep.Classes[overload.Interactive], rep.Classes[overload.BestEffort]
	if ia.Evicted != 0 {
		t.Errorf("%d interactive requests were evicted — strict priority violated", ia.Evicted)
	}
	shedFrac := func(cs ClassStats) float64 {
		if cs.Requests == 0 {
			return 0
		}
		return float64(cs.Shed) / float64(cs.Requests)
	}
	if shedFrac(ia) >= shedFrac(be) {
		t.Errorf("interactive shed fraction %.2f not below best-effort %.2f", shedFrac(ia), shedFrac(be))
	}
	if !rep.TenantsOn || !rep.OverloadOn {
		t.Errorf("report gates wrong: TenantsOn=%v OverloadOn=%v", rep.TenantsOn, rep.OverloadOn)
	}
	out := rep.String()
	if !strings.Contains(out, "class interactive") || !strings.Contains(out, "overload:") {
		t.Errorf("report missing overload sections:\n%s", out)
	}
}

// TestBrownoutEngagesAndRecovers: a sustained ~2x overload must walk
// the brownout ladder and truncate best-effort outputs. The load is
// deliberately moderate: degradation is the not-yet-full regime — a
// queue pinned at MaxQueue sheds instead, so a 40x crush would show
// shedding, not brownout.
func TestBrownoutEngagesAndRecovers(t *testing.T) {
	cfg := baseConfig()
	cfg.MaxQueue = 64
	cfg.Brownout = &overload.BrownoutSpec{
		Steps:     overload.DefaultBrownoutSteps(),
		HighWater: 8,
		Dwell:     5,
	}
	rep, err := Run(cfg, tenantedChatTrace(t, Bursty, 0.12, 120))
	if err != nil {
		t.Fatal(err)
	}
	classBalance(t, rep)
	if rep.BrownoutMaxLevel == 0 {
		t.Fatal("sustained overload never engaged the brownout ladder")
	}
	if rep.Degraded == 0 {
		t.Error("brownout engaged but truncated no best-effort output")
	}
	if rep.BrownoutSeconds <= 0 || rep.BrownoutSeconds >= rep.Makespan {
		t.Errorf("brownout seconds %.1f outside (0, makespan %.1f)", rep.BrownoutSeconds, rep.Makespan)
	}
}

// TestClientRetryAccounting: with client retries enabled, a shed
// request re-arrives after backoff instead of vanishing; retries are
// counted, re-arrivals are not fresh requests, and the no-silent-drop
// invariant holds on the original arrivals.
func TestClientRetryAccounting(t *testing.T) {
	cfg := baseConfig()
	cfg.MaxQueue = 2
	cfg.Admission = &overload.AdmissionSpec{}
	cfg.ClientRetry = overload.ClientRetrySpec{Backoff: 5, MaxAttempts: 3}
	rep, err := Run(cfg, tenantedChatTrace(t, Poisson, 5, 80))
	if err != nil {
		t.Fatal(err)
	}
	classBalance(t, rep)
	if rep.Requests != 80 {
		t.Errorf("client re-arrivals inflated the request count to %d", rep.Requests)
	}
	if rep.ClientRetries == 0 {
		t.Error("deep overload with retrying clients recorded no retries")
	}
	if rep.ClientRetries <= rep.Shed {
		t.Errorf("retry storm too mild: %d retries vs %d sheds — each shed should feed back more than once", rep.ClientRetries, rep.Shed)
	}
}

// TestFlashcrowdWeekParallelDeterminism is the PR's byte-identity
// contract: a flash-crowd trace through the full overload stack —
// tenants, admission, brownout, client retries — renders identically at
// parallelism 1 and 8. Runs under -race in CI.
func TestFlashcrowdWeekParallelDeterminism(t *testing.T) {
	cfg := baseConfig()
	cfg.MaxQueue = 8
	cfg.Admission = &overload.AdmissionSpec{}
	cfg.Brownout = &overload.BrownoutSpec{Steps: overload.DefaultBrownoutSteps(), HighWater: 6, Dwell: 10}
	cfg.ClientRetry = overload.ClientRetrySpec{Backoff: 10, MaxAttempts: 2}
	tr, err := NewTrace(TraceConfig{
		Kind: Flashcrowd, Rate: 0.5, Requests: 160, Seed: 7,
		SurgeFactor: 4, SurgeSpan: 120, SurgePeriod: 600,
		Tenants: tenantMix(),
	})
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		rep, err := Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		classBalance(t, rep)
		return rep.String()
	}
	defer runner.SetParallelism(0)
	runner.SetParallelism(1)
	serial := render()
	runner.SetParallelism(8)
	if parallel := render(); serial != parallel {
		t.Errorf("flash-crowd report diverges across parallelism:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestOverloadOffReproducesPlainBytes is the gated-section golden: with
// every overload knob at its zero value a run must render exactly the
// pre-overload report — no overload or per-class sections, no gates
// flipped — so existing golden comparisons stay byte-stable.
func TestOverloadOffReproducesPlainBytes(t *testing.T) {
	rep, err := Run(baseConfig(), chatTrace(t, 0.5, 24))
	if err != nil {
		t.Fatal(err)
	}
	if rep.OverloadOn || rep.TenantsOn {
		t.Errorf("plain run flipped overload gates: OverloadOn=%v TenantsOn=%v", rep.OverloadOn, rep.TenantsOn)
	}
	out := rep.String()
	for _, section := range []string{"overload:", "class interactive", "brownout"} {
		if strings.Contains(out, section) {
			t.Errorf("plain report leaked the %q section:\n%s", section, out)
		}
	}
}

// TestTenantTaggingIsFreeOfSideEffects: adding tenant tags must not
// perturb the arrival or length sequence — the tag RNG is decoupled —
// so erasing the tags reproduces the untagged trace exactly.
func TestTenantTaggingIsFreeOfSideEffects(t *testing.T) {
	plain, err := NewTrace(TraceConfig{Kind: Bursty, Rate: 1, Requests: 60, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	tagged, err := NewTrace(TraceConfig{Kind: Bursty, Rate: 1, Requests: 60, Seed: 9, Tenants: tenantMix()})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[overload.Class]int{}
	for i := range plain.Requests {
		p, q := plain.Requests[i], tagged.Requests[i]
		seen[q.Class]++
		q.Class = p.Class
		if p != q {
			t.Fatalf("request %d perturbed by tenant tagging: %+v vs %+v", i, p, q)
		}
	}
	if len(seen) != overload.NumClasses {
		t.Errorf("60 draws from a 30/40/30 mix hit only %d classes", len(seen))
	}
	if tagged.Tenants == "" || plain.Tenants != "" {
		t.Errorf("tenant labels wrong: tagged %q plain %q", tagged.Tenants, plain.Tenants)
	}
}
