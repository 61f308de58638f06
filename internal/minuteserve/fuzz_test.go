package minuteserve

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"mugi/internal/noc"
)

// FuzzVerify is the report-decoder fuzz target: Verify (and the diff
// decoder behind it) must never panic on arbitrary bytes — it either
// accepts a well-signed artifact or returns an error. The corpus seeds
// real signed artifacts (report, board, unsustainable report) plus the
// shapes the corruption table exercises.
func FuzzVerify(f *testing.F) {
	rep, err := Run(unsustainableEntry())
	if err != nil {
		f.Fatal(err)
	}
	good := rep.Encode()
	board, err := Leaderboard([]Entry{unsustainableEntry()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(nil))
	f.Add([]byte("{}"))
	f.Add([]byte(`{"schema":"minuteserve/v1"}`))
	f.Add([]byte(`{"schema":"minuteserve-board/v1","entries":null}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`"minuteserve/v1"`))
	f.Add(good)
	f.Add(board.Encode())
	f.Add(good[:len(good)/2])
	f.Add(bytes.Replace(good, []byte("true"), []byte("null"), -1))
	f.Fuzz(func(t *testing.T, data []byte) {
		err := Verify(data) // must not panic
		if err == nil {
			// Anything Verify accepts must be canonical enough to diff
			// against itself without error.
			if _, derr := Diff(data, data); derr != nil {
				t.Fatalf("verified artifact fails self-diff: %v", derr)
			}
		}
		_, _ = Diff(data, good) // must not panic either
	})
}

// FuzzParseEntry is the entry-spec fuzz target: ParseEntry must never
// panic, every entry it accepts must pass Validate, and the accepted
// entry written back as a full spec (kind@rows:RxC:replicas:profile)
// must parse to the same Entry with the same ID. entryFromID must read
// the entry back from its ID, so distinct accepted entries have distinct
// IDs. The corpus seeds every TestParseEntry row.
func FuzzParseEntry(f *testing.F) {
	for _, tc := range parseEntryCases {
		f.Add(tc.in)
	}
	f.Fuzz(func(t *testing.T, s string) {
		e, err := ParseEntry(s) // must not panic
		if err != nil {
			return
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("ParseEntry(%q) accepted %+v, which fails Validate: %v", s, e, err)
		}
		spec := fmt.Sprintf("%s@%d:%dx%d:%d:%s", e.Kind, e.Rows, e.MeshRows, e.MeshCols, e.Replicas, e.Profile)
		back, err := ParseEntry(spec)
		if err != nil {
			t.Fatalf("ParseEntry(%q) = %+v, but its spec %q fails: %v", s, e, spec, err)
		}
		if back != e || back.ID() != e.ID() {
			t.Fatalf("ParseEntry(%q) = %+v (ID %q), but its spec %q parses to %+v (ID %q)", s, e, e.ID(), spec, back, back.ID())
		}
		if got, ok := entryFromID(e.ID()); !ok || got != e {
			t.Fatalf("ParseEntry(%q) = %+v, but its ID %q reads back as %+v", s, e, e.ID(), got)
		}
	})
}

// entryFromID inverts Entry.ID, "<kind><rows>-<R>x<C>-r<replicas>-
// <profile>" with the rows omitted when 0; it reports false on any other
// text. A canonical kind has no digit and no '-', so the split is
// unambiguous.
func entryFromID(id string) (Entry, bool) {
	parts := strings.Split(id, "-")
	if len(parts) != 4 || !strings.HasPrefix(parts[2], "r") {
		return Entry{}, false
	}
	kind := strings.TrimRight(parts[0], "0123456789")
	e := Entry{Kind: kind, Profile: parts[3]}
	if digits := parts[0][len(kind):]; digits != "" {
		rows, err := strconv.Atoi(digits)
		if err != nil {
			return Entry{}, false
		}
		e.Rows = rows
	}
	mesh, err := noc.ParseMesh(parts[1])
	if err != nil {
		return Entry{}, false
	}
	e.MeshRows, e.MeshCols = mesh.Rows, mesh.Cols
	replicas, err := strconv.Atoi(parts[2][1:])
	if err != nil {
		return Entry{}, false
	}
	e.Replicas = replicas
	return e, true
}
