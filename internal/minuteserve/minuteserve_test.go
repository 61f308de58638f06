package minuteserve

import (
	"bytes"
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"testing"

	"mugi/internal/runner"
)

// smallEntry is a cheap sustainable entry for artifact tests (single
// node sized so the capacity search converges in a handful of probes).
func smallEntry() Entry {
	return Entry{Kind: "mugi", Rows: 256, MeshRows: 4, MeshCols: 4, Replicas: 1, Profile: "chat"}
}

// unsustainableEntry cannot hold the rules SLO even at the floor rate
// (2x2 prefill tails exceed the TTFT bound), so its report is tiny and
// cheap — the byte-mutation sweep uses it.
func unsustainableEntry() Entry {
	return Entry{Kind: "mugi", Rows: 256, MeshRows: 2, MeshCols: 2, Replicas: 1, Profile: "chat"}
}

func TestRulesHashShape(t *testing.T) {
	h := RulesHash()
	if len(h) != 64 || strings.ToLower(h) != h {
		t.Fatalf("rules hash %q is not lowercase hex sha256", h)
	}
	if !strings.Contains(Rules(), "slo: p99 TTFT <= 10s") {
		t.Errorf("rules text lost the SLO line:\n%s", Rules())
	}
}

// TestLeaderboardParallelismByteIdentical is the property the issue
// names: the full built-in leaderboard artifact is byte-identical at
// parallelism 1 and 8, under -race.
func TestLeaderboardParallelismByteIdentical(t *testing.T) {
	defer runner.SetParallelism(0)
	encodings := make([][]byte, 2)
	for i, par := range []int{1, 8} {
		runner.SetParallelism(par)
		board, err := Leaderboard(Builtin())
		if err != nil {
			t.Fatal(err)
		}
		encodings[i] = board.Encode()
	}
	if !bytes.Equal(encodings[0], encodings[1]) {
		t.Fatal("leaderboard artifact differs between parallelism 1 and 8")
	}
	if err := Verify(encodings[0]); err != nil {
		t.Fatalf("freshly signed leaderboard fails verification: %v", err)
	}
}

func TestRunReportRoundTrips(t *testing.T) {
	rep, err := Run(smallEntry())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sustainable || rep.Capacity <= 0 || rep.ReqPerDollar <= 0 || rep.DollarsPerMTok <= 0 {
		t.Fatalf("expected a sustainable scored entry, got %+v", rep)
	}
	if err := Verify(rep.Encode()); err != nil {
		t.Fatalf("signed report fails verification: %v", err)
	}
	if got := headline(rep.Minute.Completed, rep.TCO); got != rep.ReqPerDollar {
		t.Errorf("headline does not re-derive: %v != %v", got, rep.ReqPerDollar)
	}
}

func TestRunUnsustainableEntry(t *testing.T) {
	rep, err := Run(unsustainableEntry())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sustainable || rep.Capacity != 0 || rep.ReqPerDollar != 0 || rep.DollarsPerMTok != 0 {
		t.Fatalf("2x2 chat must be unsustainable under the rules SLO, got %+v", rep)
	}
	if err := Verify(rep.Encode()); err != nil {
		t.Fatalf("unsustainable report fails verification: %v", err)
	}
}

// TestVerifyCorruption is the table-driven tamper suite: every way of
// editing a signed artifact must fail verification with the right
// category.
func TestVerifyCorruption(t *testing.T) {
	rep, err := Run(smallEntry())
	if err != nil {
		t.Fatal(err)
	}
	good := rep.Encode()
	if err := Verify(good); err != nil {
		t.Fatalf("baseline artifact invalid: %v", err)
	}

	reorderKeys := func(data []byte) []byte {
		// Round-tripping through a Go map re-marshals with sorted keys —
		// same values, different key order and layout.
		var v map[string]any
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		out, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return append(out, '\n')
	}

	flippedDigest := bytes.Replace(good, []byte(rep.Digest), []byte(flipHex(rep.Digest)), 1)
	staleRules := bytes.Replace(good, []byte(rep.RulesHash), []byte(flipHex(rep.RulesHash)), 1)

	// A canonical-preserving headline edit: decode, double the headline,
	// re-encode canonically but keep the old signature — only the digest
	// check can catch this one.
	editedHeadline := rep
	editedHeadline.ReqPerDollar *= 2
	editedHeadlineBytes := editedHeadline.Encode()

	// A report signed from an entry stored as typed: current rules and a
	// good digest, but a kind in another spelling, whose ID is not its
	// entry's ID.
	otherSpelling := rep
	otherSpelling.Entry.Kind = strings.ToUpper(rep.Entry.Kind)
	otherSpelling.sign()

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrMalformed},
		{"not json", []byte("MinuteServe"), ErrMalformed},
		{"wrong schema", []byte("{\n  \"schema\": \"minuteserve/v0\"\n}\n"), ErrSchema},
		{"truncated", good[:len(good)/2], ErrMalformed},
		{"trailing garbage", append(append([]byte{}, good...), '{'), ErrMalformed},
		{"unknown field", bytes.Replace(good, []byte("\"schema\""), []byte("\"bonus\": 1,\n  \"schema\""), 1), ErrMalformed},
		{"flipped digest", flippedDigest, ErrDigest},
		{"stale rules hash", staleRules, ErrStaleRules},
		{"edited headline", editedHeadlineBytes, ErrDigest},
		{"entry in another spelling", otherSpelling.Encode(), ErrInconsistent},
		{"edited headline raw bytes", bytes.Replace(good, []byte("\"requests_per_dollar\": "), []byte("\"requests_per_dollar\": 9"), 1), ErrNotCanonical},
		{"reordered keys", reorderKeys(good), ErrNotCanonical},
		{"reformatted whitespace", bytes.Replace(good, []byte("  \"schema\""), []byte("   \"schema\""), 1), ErrNotCanonical},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Verify(tc.data)
			if err == nil {
				t.Fatal("corrupted artifact verified clean")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want category %v", err, tc.want)
			}
		})
	}
}

// flipHex changes the first hex character of a digest-like string.
func flipHex(s string) string {
	b := []byte(s)
	if b[0] == '0' {
		b[0] = '1'
	} else {
		b[0] = '0'
	}
	return string(b)
}

// TestVerifyRejectsEverySingleByteMutation flips every byte of a signed
// report artifact (xor 0x01) and requires each mutation to fail: any
// flip either breaks the JSON, the canonical layout, or the content
// digest. This is the issue's "rejects any single-byte mutation"
// property, exhaustively.
func TestVerifyRejectsEverySingleByteMutation(t *testing.T) {
	rep, err := Run(unsustainableEntry())
	if err != nil {
		t.Fatal(err)
	}
	good := rep.Encode()
	if err := Verify(good); err != nil {
		t.Fatalf("baseline artifact invalid: %v", err)
	}
	mut := make([]byte, len(good))
	for i := range good {
		copy(mut, good)
		mut[i] ^= 0x01
		if err := Verify(mut); err == nil {
			t.Fatalf("mutation at byte %d (%q -> %q) verified clean\ncontext: %q",
				i, good[i], mut[i], good[max(0, i-20):min(len(good), i+20)])
		}
	}
}

// TestBoardCorruptionInsideEntry: editing a nested entry report inside a
// signed board breaks the board digest even where the entry's own digest
// is recomputed consistently.
func TestBoardCorruptionInsideEntry(t *testing.T) {
	board, err := Leaderboard([]Entry{smallEntry(), unsustainableEntry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(board.Encode()); err != nil {
		t.Fatalf("baseline board invalid: %v", err)
	}
	tampered := board
	tampered.Entries = append([]Report{}, board.Entries...)
	tampered.Entries[0].ReqPerDollar *= 2
	tampered.Entries[0].sign() // even re-signing the entry cannot fix the board
	if err := Verify(tampered.Encode()); err == nil {
		t.Fatal("board with re-signed tampered entry verified clean")
	}
}

// parseEntryCases are TestParseEntry's rows and FuzzParseEntry's seeds.
var parseEntryCases = []struct {
	in   string
	want string // expected ID, "" for error
}{
	{"mugi:4x4", "mugi256-4x4-r1-chat"},
	{"mugi@128:2x2:2:rag", "mugi128-2x2-r2-rag"},
	{"carat:4x4", "carat128-4x4-r1-chat"},
	{"tensor:1x1", "tensor-1x1-r1-chat"},
	{"saf:4x4:rag", "saf16-4x4-r1-rag"},
	{"mugi", ""},
	{"mugi:4", ""},
	{"mugi@x:4x4", ""},
	{"mugi:4x4:0", ""},
	{"mugi:4x4:nosuchprofile", ""},
	{"warp:4x4", ""},
	{"mugi:4x4junk", ""},
	{"mugi:2x2x9", ""},
	{"mugi:4x", ""},
	{"mugi:x4", ""},
	{"mugi:4x4:2:3", ""},
	{"mugi:4x4:chat:rag", ""},
	// One ID per entry: spellings of one entry share its canonical ID,
	// and rows that would only change the ID are errors.
	{"tensor@-5:1x1", ""},
	{"tensor@7:1x1", ""},
	{"tensor@0:1x1", "tensor-1x1-r1-chat"},
	{"mugi@-256:4x4", ""},
	{"MUGI:4x4", "mugi256-4x4-r1-chat"},
	{"mugi:4x4:RAG", "mugi256-4x4-r1-rag"},
	{"Mugi-L:4x4", "mugil256-4x4-r1-chat"},
	{"sa-f@16:4x4", "saf16-4x4-r1-chat"},
	{"SD-F:2x2:Chat", "sdf16-2x2-r1-chat"},
	{"mugi:3037000500x3037000500", ""},
	{"mugi:1025x1024", ""},
}

// TestValidateRequiresCanonicalEntries: an Entry built without ParseEntry
// must already be in the spelling ParseEntry gives, or its ID would
// differ from its twin's.
func TestValidateRequiresCanonicalEntries(t *testing.T) {
	ok := Entry{Kind: "mugi", Rows: 256, MeshRows: 4, MeshCols: 4, Replicas: 1, Profile: "chat"}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*Entry){
		func(e *Entry) { e.Kind = "MUGI" },
		func(e *Entry) { e.Kind = "mugi-l" },
		func(e *Entry) { e.Profile = "RAG" },
		func(e *Entry) { e.Kind, e.Rows = "tensor", -5 },
		func(e *Entry) { e.Kind, e.Rows = "tensor", 7 },
		func(e *Entry) { e.Rows = -256 },
	}
	if strconv.IntSize == 64 {
		// A mesh whose node count overflows a 64-bit int; its side is
		// not a 32-bit int.
		side := int64(3037000500)
		bads = append(bads, func(e *Entry) { e.MeshRows, e.MeshCols = int(side), int(side) })
	}
	for _, bad := range bads {
		e := ok
		bad(&e)
		if err := e.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", e)
		}
	}
}

func TestParseEntry(t *testing.T) {
	for _, tc := range parseEntryCases {
		e, err := ParseEntry(tc.in)
		if tc.want == "" {
			if err == nil {
				t.Errorf("ParseEntry(%q) accepted, got %+v", tc.in, e)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseEntry(%q): %v", tc.in, err)
			continue
		}
		if e.ID() != tc.want {
			t.Errorf("ParseEntry(%q).ID() = %q, want %q", tc.in, e.ID(), tc.want)
		}
	}
}

func TestDiff(t *testing.T) {
	a, err := Leaderboard([]Entry{smallEntry(), unsustainableEntry()})
	if err != nil {
		t.Fatal(err)
	}

	// Identical artifacts: no per-entry changes.
	out, err := Diff(a.Encode(), a.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no per-entry changes") || !strings.Contains(out, "(same)") {
		t.Errorf("self-diff rendering:\n%s", out)
	}

	// A re-signed capacity regression shows up on the capacity axis.
	b := a
	b.Entries = append([]Report{}, a.Entries...)
	b.Entries[0].Capacity *= 0.5
	b.Entries[0].ReqPerDollar = headline(b.Entries[0].Minute.Completed, b.Entries[0].TCO)
	b.Entries[0].sign()
	b.sign()
	out, err = Diff(a.Encode(), b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "capacity") || !strings.Contains(out, "-50.0%") {
		t.Errorf("capacity regression not rendered:\n%s", out)
	}

	// Entry removal and addition.
	c := a
	c.Entries = a.Entries[:1]
	c.sign()
	out, err = Diff(a.Encode(), c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "removed") {
		t.Errorf("removed entry not rendered:\n%s", out)
	}
	out, err = Diff(c.Encode(), a.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "added") {
		t.Errorf("added entry not rendered:\n%s", out)
	}

	// Tampered inputs are rejected, not diffed.
	bad := bytes.Replace(a.Encode(), []byte("\"capacity_req_per_s\": "), []byte("\"capacity_req_per_s\": 9"), 1)
	if _, err := Diff(bad, a.Encode()); err == nil {
		t.Error("diff accepted a digest-invalid first artifact")
	}
	if _, err := Diff(a.Encode(), bad); err == nil {
		t.Error("diff accepted a digest-invalid second artifact")
	}
}

// TestBoardRendering pins the table's load-bearing pieces: rank order by
// req/$, the unsustainable parking rows, and the digest line.
func TestBoardRendering(t *testing.T) {
	board, err := Leaderboard([]Entry{unsustainableEntry(), smallEntry()})
	if err != nil {
		t.Fatal(err)
	}
	out := board.String()
	for _, needle := range []string{"MinuteServe leaderboard", "Mugi (256) 4x4", "unsustainable under rules SLO", "board digest"} {
		if !strings.Contains(out, needle) {
			t.Errorf("board rendering missing %q:\n%s", needle, out)
		}
	}
	if len(board.Entries) != 2 || !board.Entries[0].Sustainable || board.Entries[1].Sustainable {
		t.Fatal("sustainable entry must rank above the unsustainable one")
	}
	sum := board.Entries[0].Summary()
	if !strings.Contains(sum, "requests/$") || !strings.Contains(sum, "digest") {
		t.Errorf("summary rendering:\n%s", sum)
	}
	unsum := board.Entries[1].Summary()
	if !strings.Contains(unsum, "unsustainable") {
		t.Errorf("unsustainable summary rendering:\n%s", unsum)
	}
}
