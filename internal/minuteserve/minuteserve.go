// Package minuteserve is the repo's Gray-style standardized
// price-performance benchmark. Jim Gray's Performance/Price Sort made
// sorting honest with fixed rules and one headline number anyone could
// reproduce (PennySort, MinuteSort); MinuteServe is the analog for this
// serving stack. For any (design, mesh, replicas, trace-profile) entry it
// runs a fixed-rules simulated minute and emits two headline numbers —
// requests served per dollar in one simulated minute under the rules SLO,
// and dollars per million generated tokens at sustained capacity — as a
// versioned, content-hash-signed JSON artifact that fails verification
// when tampered with or generated under stale rules.
//
// The rules are compile-time constants of this package (see Rules):
// model, arrival process, seed, SLO bounds, goodput threshold, probe
// shape, minute length, and the default fleet.PriceBook. An entry may
// vary only what Entry encodes. Everything downstream is deterministic —
// the capacity search is one fleet.Plan cell under JSQ routing, whatever
// the entry's replica count, the leaderboard shards entries across
// runner.Map, and artifacts are byte-identical at any parallelism.
package minuteserve

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mugi/internal/arch"
	"mugi/internal/fleet"
	"mugi/internal/model"
	"mugi/internal/noc"
	"mugi/internal/runner"
	"mugi/internal/serve"
)

// The fixed rules. Changing any of these changes RulesHash, which stales
// every previously signed artifact — exactly the Gray-benchmark property
// that results under different rules never compare silently.
const (
	// SchemaReport versions the single-entry artifact format.
	SchemaReport = "minuteserve/v1"
	// SchemaBoard versions the leaderboard artifact format.
	SchemaBoard = "minuteserve-board/v1"
	// Minute is the scored horizon in simulated seconds.
	Minute = 60.0
	// Seed drives every trace draw (probes and the scored minute).
	Seed int64 = 2026
	// TTFTP99 is the rules SLO on p99 time-to-first-token, in seconds.
	// It is the standard-class bound from internal/overload: on this
	// simulated hardware the p99 chat prompt alone prefills for several
	// seconds on a 4x4 mesh, so a 1 s bound would rank nothing — the
	// rules pin the tightest bound the studied design space can hold.
	TTFTP99 = 10.0
	// LatencyP99 is the rules SLO on p99 request latency, in seconds
	// (the standard-class bound from internal/overload).
	LatencyP99 = 120.0
	// ProbeRequests is the per-probe trace length of the capacity search.
	ProbeRequests = 32
	// ProbeIters is the log-bisection count after geometric bracketing.
	ProbeIters = 5
	// Goodput is the sustained/offered pass threshold of every probe.
	Goodput = fleet.DefaultGoodput
)

// RulesModel is the served checkpoint every entry is scored on.
func RulesModel() model.Config { return model.Llama2_7B }

// Rules renders the complete fixed-rules text: everything an entry is NOT
// allowed to vary. RulesHash signs this text, so any rule change — model,
// SLO, seed, probe shape, price book — stales every earlier artifact.
func Rules() string {
	m := RulesModel()
	book := fleet.PriceBook{}.WithDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "%s rules\n", SchemaReport)
	fmt.Fprintf(&b, "model: %s\n", m.Name)
	fmt.Fprintf(&b, "arrival: seeded poisson, seed %d\n", Seed)
	fmt.Fprintf(&b, "slo: p99 TTFT <= %gs AND p99 latency <= %gs\n", TTFTP99, LatencyP99)
	fmt.Fprintf(&b, "goodput: sustained >= %.2f x offered\n", Goodput)
	fmt.Fprintf(&b, "capacity: geometric bracket + %d log-bisections, %d requests/probe\n", ProbeIters, ProbeRequests)
	fmt.Fprintf(&b, "minute: %g simulated seconds at capacity, requests = round(capacity x %g), min 1\n", Minute, Minute)
	fmt.Fprintf(&b, "router: join-shortest-queue for multi-replica entries\n")
	fmt.Fprintf(&b, "price book: $%g/mm2, $%g fixed/replica, $%g/kWh, $%g/tCO2e, PUE %g, utilization %g, lifetime %gs\n",
		book.DollarPerMM2, book.DollarPerReplicaFixed, book.ElectricityPerKWh,
		book.CarbonPerTonne, book.PUE, book.Utilization, book.LifetimeSeconds)
	return b.String()
}

// RulesHash is the hex SHA-256 of Rules — the value every artifact
// carries and Verify checks for staleness.
func RulesHash() string {
	return sha256Hex([]byte(Rules()))
}

// Entry is everything a benchmark submission may vary: the hardware
// design, the mesh, the replica count, and the length profile of the
// scored traffic. The JSON form is embedded verbatim in signed artifacts.
type Entry struct {
	// Kind is the design's CLI spelling (see arch.ByName).
	Kind string `json:"kind"`
	// Rows is the array height (0 allowed only for tensor).
	Rows int `json:"rows"`
	// MeshRows and MeshCols shape the per-replica NoC mesh.
	MeshRows int `json:"mesh_rows"`
	MeshCols int `json:"mesh_cols"`
	// Replicas is the fleet size (1 = single node).
	Replicas int `json:"replicas"`
	// Profile is the request length profile ("chat" or "rag").
	Profile string `json:"profile"`
}

// Validate rejects entries the rules cannot score, and entries not in
// their one canonical spelling, so that two accepted entries with the
// same ID are the same entry: Kind as arch.CanonicalKind spells it,
// Profile lower case, and Rows 0 for tensor, which takes none.
func (e Entry) Validate() error {
	if k := arch.CanonicalKind(e.Kind); k != e.Kind {
		return fmt.Errorf("minuteserve: kind %q is spelled %q in an entry", e.Kind, k)
	}
	if e.Kind == "tensor" && e.Rows != 0 {
		return fmt.Errorf("minuteserve: kind tensor takes no rows, got %d", e.Rows)
	}
	if _, err := arch.ByName(e.Kind, e.Rows); err != nil {
		return fmt.Errorf("minuteserve: %w", err)
	}
	if err := (noc.Mesh{Rows: e.MeshRows, Cols: e.MeshCols}).Validate(); err != nil {
		return fmt.Errorf("minuteserve: %w", err)
	}
	if e.Replicas < 1 {
		return fmt.Errorf("minuteserve: replica count %d must be positive", e.Replicas)
	}
	if p := strings.ToLower(e.Profile); p != e.Profile {
		return fmt.Errorf("minuteserve: profile %q is spelled %q in an entry", e.Profile, p)
	}
	if _, err := serve.ParseLengthProfile(e.Profile); err != nil {
		return fmt.Errorf("minuteserve: %w", err)
	}
	return nil
}

// ID is the entry's stable slug — the key Diff matches entries on.
func (e Entry) ID() string {
	kind := e.Kind
	if e.Rows > 0 {
		kind = fmt.Sprintf("%s%d", e.Kind, e.Rows)
	}
	return fmt.Sprintf("%s-%dx%d-r%d-%s", kind, e.MeshRows, e.MeshCols, e.Replicas, e.Profile)
}

// Display is the human rendering used in leaderboard tables.
func (e Entry) Display() string {
	d, err := arch.ByName(e.Kind, e.Rows)
	name := e.Kind
	if err == nil {
		name = d.Name
	}
	s := fmt.Sprintf("%s %dx%d", name, e.MeshRows, e.MeshCols)
	if e.Replicas > 1 {
		s += fmt.Sprintf(" x%d", e.Replicas)
	}
	if e.Profile != "chat" {
		s += " " + e.Profile
	}
	return s
}

// defaultRows is the per-kind default array height ParseEntry applies
// when the spec omits "@rows" (the Table 2 / Table 3 study points); kind
// is canonical.
func defaultRows(kind string) int {
	switch kind {
	case "carat":
		return 128
	case "sa", "saf", "sd", "sdf":
		return 16
	case "tensor":
		return 0
	default:
		return 256
	}
}

// ParseEntry parses the CLI entry spec
//
//	kind[@rows]:RxC[:replicas][:profile]
//
// e.g. "mugi:4x4", "mugi@128:2x2:2:rag". Replicas default to 1 and the
// profile to "chat". Kind and profile are case-insensitive and the
// kind's aliases are accepted; the entry holds their canonical spelling,
// so every spelling of one entry has one ID.
func ParseEntry(s string) (Entry, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 4 {
		return Entry{}, fmt.Errorf("minuteserve: bad entry %q (want kind[@rows]:RxC[:replicas][:profile])", s)
	}
	e := Entry{Replicas: 1, Profile: "chat"}
	e.Kind = arch.CanonicalKind(parts[0])
	if at := strings.IndexByte(parts[0], '@'); at >= 0 {
		e.Kind = arch.CanonicalKind(parts[0][:at])
		rows, err := strconv.Atoi(parts[0][at+1:])
		if err != nil {
			return Entry{}, fmt.Errorf("minuteserve: bad rows in entry %q", s)
		}
		e.Rows = rows
	} else {
		e.Rows = defaultRows(e.Kind)
	}
	mesh, err := noc.ParseMesh(parts[1])
	if err != nil {
		return Entry{}, fmt.Errorf("minuteserve: %w", err)
	}
	e.MeshRows, e.MeshCols = mesh.Rows, mesh.Cols
	var sawReplicas, sawProfile bool
	for _, tok := range parts[2:] {
		if n, err := strconv.Atoi(tok); err == nil {
			if sawReplicas {
				return Entry{}, fmt.Errorf("minuteserve: entry %q gives replicas twice", s)
			}
			e.Replicas, sawReplicas = n, true
		} else {
			if sawProfile {
				return Entry{}, fmt.Errorf("minuteserve: entry %q gives a profile twice", s)
			}
			e.Profile, sawProfile = strings.ToLower(tok), true
		}
	}
	if err := e.Validate(); err != nil {
		return Entry{}, err
	}
	return e, nil
}

// Builtin is the standard leaderboard field: the paper's study points
// plus entries exercising each rules axis (scale-out mesh, a mesh below
// the SLO cut line, a multi-replica fleet, and the RAG profile).
func Builtin() []Entry {
	return []Entry{
		{Kind: "mugi", Rows: 256, MeshRows: 4, MeshCols: 4, Replicas: 1, Profile: "chat"},
		{Kind: "mugi", Rows: 256, MeshRows: 8, MeshCols: 8, Replicas: 1, Profile: "chat"},
		{Kind: "mugil", Rows: 256, MeshRows: 4, MeshCols: 4, Replicas: 1, Profile: "chat"},
		{Kind: "carat", Rows: 128, MeshRows: 4, MeshCols: 4, Replicas: 1, Profile: "chat"},
		{Kind: "saf", Rows: 16, MeshRows: 4, MeshCols: 4, Replicas: 1, Profile: "chat"},
		{Kind: "sdf", Rows: 16, MeshRows: 4, MeshCols: 4, Replicas: 1, Profile: "chat"},
		{Kind: "tensor", Rows: 0, MeshRows: 4, MeshCols: 4, Replicas: 1, Profile: "chat"},
		{Kind: "mugi", Rows: 256, MeshRows: 2, MeshCols: 2, Replicas: 1, Profile: "chat"},
		{Kind: "mugi", Rows: 256, MeshRows: 4, MeshCols: 4, Replicas: 2, Profile: "chat"},
		{Kind: "mugi", Rows: 256, MeshRows: 8, MeshCols: 8, Replicas: 1, Profile: "rag"},
	}
}

// headline derives the requests-per-dollar headline from a scored minute:
// completed requests divided by the fleet's burn over one minute. Verify
// re-derives it with this exact expression, so a report whose headline
// was edited — even to a value plausible for its TCO — fails.
func headline(completed int, tco fleet.TCO) float64 {
	if tco.DollarsPerHour <= 0 {
		return 0
	}
	return float64(completed) / (tco.DollarsPerHour / 60.0 * (Minute / 60.0))
}

// Run scores one entry under the fixed rules: SLO-bound capacity search,
// one simulated minute at capacity, TCO pricing, headline derivation,
// and a signed artifact. Identical entries produce byte-identical
// reports at any runner parallelism.
func Run(e Entry) (Report, error) {
	if err := e.Validate(); err != nil {
		return Report{}, err
	}
	d, err := arch.ByName(e.Kind, e.Rows)
	if err != nil {
		return Report{}, fmt.Errorf("minuteserve: %w", err)
	}
	mesh := noc.NewMesh(e.MeshRows, e.MeshCols)
	lengths, err := serve.ParseLengthProfile(e.Profile)
	if err != nil {
		return Report{}, fmt.Errorf("minuteserve: %w", err)
	}
	base := serve.Config{Model: RulesModel()}
	probeTrace := serve.TraceConfig{
		Kind: serve.Poisson, Requests: ProbeRequests, Seed: Seed, Lengths: lengths,
	}
	rep := Report{Schema: SchemaReport, RulesHash: RulesHash(), Entry: e}

	res := fleet.Plan(fleet.PlanSpec{
		Base:    base,
		Cells:   []fleet.Cell{{Design: d, Mesh: mesh, Replicas: e.Replicas}},
		Policy:  fleet.JSQ,
		Trace:   probeTrace,
		Goodput: Goodput,
		Iters:   ProbeIters,
		SLO:     fleet.SLO{TTFTP99: TTFTP99, LatencyP99: LatencyP99},
	})[0]
	if res.Err != nil {
		return Report{}, res.Err
	}
	rep.Capacity, rep.Probes = res.Capacity, res.Probes

	if rep.Capacity == 0 {
		// Unsustainable under the rules SLO: the entry is reported (the
		// leaderboard shows where the cut line falls) but scores nothing.
		rep.sign()
		return rep, nil
	}

	minuteTrace := probeTrace
	minuteTrace.Rate = rep.Capacity
	minuteTrace.Requests = int(rep.Capacity*Minute + 0.5)
	if minuteTrace.Requests < 1 {
		minuteTrace.Requests = 1
	}
	src, err := serve.NewStream(minuteTrace)
	if err != nil {
		return Report{}, err
	}
	// One replica's minute runs on serve.RunStream: a one-replica
	// fleet.Run returns the same bytes but allocates more per entry.
	if e.Replicas == 1 {
		cfg := base
		cfg.Design, cfg.Mesh = d, mesh
		rep.Minute, err = serve.RunStream(cfg, src)
	} else {
		cfg := fleet.Config{Replica: base, Replicas: e.Replicas, Policy: fleet.JSQ}
		cfg.Replica.Design, cfg.Replica.Mesh = d, mesh
		var frep fleet.Report
		frep, err = fleet.Run(cfg, src)
		rep.Minute = frep.Fleet
	}
	if err != nil {
		return Report{}, err
	}

	tco, err := fleet.Price(fleet.PriceBook{}, d, mesh, e.Replicas, rep.Minute)
	if err != nil {
		return Report{}, err
	}
	rep.Sustainable = true
	rep.TCO = tco
	rep.ReqPerDollar = headline(rep.Minute.Completed, tco)
	rep.DollarsPerMTok = tco.DollarsPerMTok
	rep.sign()
	return rep, nil
}

// Leaderboard scores every entry (sharded across the runner pool),
// ranks sustainable entries by requests per dollar (ties by entry ID),
// parks unsustainable entries below them sorted by ID, and signs the
// board. Byte-identical at any parallelism.
func Leaderboard(entries []Entry) (Board, error) {
	reports := make([]Report, len(entries))
	errs := make([]error, len(entries))
	runner.Map(len(entries), func(i int) {
		reports[i], errs[i] = Run(entries[i])
	})
	for i, err := range errs {
		if err != nil {
			return Board{}, fmt.Errorf("minuteserve: entry %s: %w", entries[i].ID(), err)
		}
	}
	sort.SliceStable(reports, func(a, b int) bool {
		ra, rb := reports[a], reports[b]
		if ra.Sustainable != rb.Sustainable {
			return ra.Sustainable
		}
		if ra.ReqPerDollar != rb.ReqPerDollar {
			return ra.ReqPerDollar > rb.ReqPerDollar
		}
		return ra.Entry.ID() < rb.Entry.ID()
	})
	board := Board{Schema: SchemaBoard, RulesHash: RulesHash(), Entries: reports}
	board.sign()
	return board, nil
}
