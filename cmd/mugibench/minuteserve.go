// The -minuteserve mode: score entries under the benchmark's fixed
// rules, write and verify signed artifacts, and gate the committed
// leaderboard golden (the CI check).

package main

import (
	"bytes"
	"fmt"
	"os"

	"mugi"
)

// minuteServeFlags carries the -minuteserve mode's flag values.
type minuteServeFlags struct {
	entry  string // score one entry ("kind[@rows]:RxC[:replicas][:profile]")
	report string // write the signed artifact here
	verify string // verify an artifact file
	diff   string // diff this artifact against the positional second path
	diffB  string // second -diff path (flag.Arg(0))
	check  string // regenerate the leaderboard and require byte-equality
}

// runMinuteServe dispatches the -minuteserve mode: exactly one of
// -verify, -diff, -check, -entry, or the default full leaderboard.
func runMinuteServe(f minuteServeFlags) error {
	switch {
	case f.verify != "":
		data, err := os.ReadFile(f.verify)
		if err != nil {
			return err
		}
		if err := mugi.VerifyReport(data); err != nil {
			return err
		}
		fmt.Printf("%s: OK — signed under the current rules (hash %.12s)\n",
			f.verify, mugi.MinuteServeRulesHash())
		return nil

	case f.diff != "":
		if f.diffB == "" {
			return fmt.Errorf("-diff needs two artifacts: -diff old.json new.json")
		}
		a, err := os.ReadFile(f.diff)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(f.diffB)
		if err != nil {
			return err
		}
		out, err := mugi.DiffReports(a, b)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil

	case f.check != "":
		want, err := os.ReadFile(f.check)
		if err != nil {
			return err
		}
		if err := mugi.VerifyReport(want); err != nil {
			return fmt.Errorf("%s: committed golden fails verification: %w", f.check, err)
		}
		board, err := mugi.Leaderboard(mugi.MinuteServeEntries())
		if err != nil {
			return err
		}
		got := board.Encode()
		if !bytes.Equal(got, want) {
			if delta, derr := mugi.DiffReports(want, got); derr == nil {
				fmt.Print(delta)
			}
			return fmt.Errorf("%s: leaderboard drifted from the committed golden — regenerate with `make minuteserve-json` and review the diff", f.check)
		}
		fmt.Printf("%s: leaderboard current — %d entries, board digest %.12s\n",
			f.check, len(board.Entries), board.Digest)
		return nil

	case f.entry != "":
		e, err := mugi.ParseMinuteServeEntry(f.entry)
		if err != nil {
			return err
		}
		rep, err := mugi.MinuteServe(e)
		if err != nil {
			return err
		}
		fmt.Print(rep.Summary())
		if f.report != "" {
			if err := os.WriteFile(f.report, rep.Encode(), 0o644); err != nil {
				return err
			}
			fmt.Printf("signed artifact written to %s\n", f.report)
		}
		return nil

	default:
		board, err := mugi.Leaderboard(mugi.MinuteServeEntries())
		if err != nil {
			return err
		}
		fmt.Print(board.String())
		if f.report != "" {
			if err := os.WriteFile(f.report, board.Encode(), 0o644); err != nil {
				return err
			}
			fmt.Printf("signed artifact written to %s\n", f.report)
		}
		return nil
	}
}
