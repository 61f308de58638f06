package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// capture, when set, names a built mugisim binary: TestModesMatchGoldens
// then rewrites each golden it runs from that binary's output instead of
// comparing. A golden holding only its args line is captured the same way.
var capture = flag.String("capture", "", "rewrite the goldens from this mugisim binary")

// golden is one pinned invocation: the args, the exit status, and the
// bytes written to stdout and stderr.
type golden struct {
	args           []string
	exit           int
	stdout, stderr []byte
}

// encode writes the golden's text form: an args line holding a JSON
// array, an exit line, then each stream as a "name: N bytes" line
// followed by exactly N bytes.
func (g golden) encode() []byte {
	args, _ := json.Marshal(g.args)
	var b bytes.Buffer
	fmt.Fprintf(&b, "args: %s\nexit: %d\n", args, g.exit)
	fmt.Fprintf(&b, "stdout: %d bytes\n%s", len(g.stdout), g.stdout)
	fmt.Fprintf(&b, "stderr: %d bytes\n%s", len(g.stderr), g.stderr)
	return b.Bytes()
}

// parseGolden reads encode's form. A file of only the args line parses
// with exit -1, a golden still to be captured.
func parseGolden(data []byte) (golden, error) {
	g := golden{exit: -1}
	line := func() (string, error) {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			return "", errors.New("truncated golden")
		}
		s := string(data[:i])
		data = data[i+1:]
		return s, nil
	}
	section := func(name string) ([]byte, error) {
		s, err := line()
		if err != nil {
			return nil, err
		}
		var n int
		if _, err := fmt.Sscanf(s, name+": %d bytes", &n); err != nil || n > len(data) {
			return nil, fmt.Errorf("bad %s header %q", name, s)
		}
		out := data[:n]
		data = data[n:]
		return out, nil
	}
	s, err := line()
	if err != nil || !strings.HasPrefix(s, "args: ") {
		return g, fmt.Errorf("want an args line, got %q", s)
	}
	if err := json.Unmarshal([]byte(s[len("args: "):]), &g.args); err != nil {
		return g, err
	}
	if len(data) == 0 {
		return g, nil
	}
	if s, err = line(); err != nil {
		return g, err
	}
	if g.exit, err = strconv.Atoi(strings.TrimPrefix(s, "exit: ")); err != nil {
		return g, fmt.Errorf("bad exit line %q", s)
	}
	if g.stdout, err = section("stdout"); err != nil {
		return g, err
	}
	if g.stderr, err = section("stderr"); err != nil {
		return g, err
	}
	if len(data) != 0 {
		return g, fmt.Errorf("%d bytes after stderr", len(data))
	}
	return g, nil
}

// runBinary runs a built mugisim with args and records what it printed.
func runBinary(bin string, args []string) (golden, error) {
	g := golden{args: args}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		g.exit = exit.ExitCode()
	case err != nil:
		return g, err
	}
	g.stdout, g.stderr = stdout.Bytes(), stderr.Bytes()
	return g, nil
}

// TestModesMatchGoldens runs every invocation pinned in
// testdata/*.golden through run and requires its exit status, stdout and
// stderr byte for byte. The goldens cover each mode at its defaults and
// with other flags, -h, -all, and a usage or run error of each parser.
//
// To re-capture goldens from a built binary, after a deliberate output
// change or for a new golden file holding only its args line:
//
//	go build -o /tmp/bin/ ./cmd/mugisim
//	go test ./cmd/mugisim -run 'TestModesMatchGoldens/<name>' -capture /tmp/bin/mugisim
func TestModesMatchGoldens(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no goldens: %v", err)
	}
	for _, path := range files {
		t.Run(strings.TrimSuffix(filepath.Base(path), ".golden"), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want, err := parseGolden(data)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if *capture != "" {
				got, err := runBinary(*capture, want.args)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got.encode(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			var stdout, stderr bytes.Buffer
			if got := run(want.args, &stdout, &stderr); got != want.exit {
				t.Errorf("exit %d, want %d", got, want.exit)
			}
			if got := stdout.Bytes(); !bytes.Equal(got, want.stdout) {
				t.Errorf("stdout differs:\n%s\nwant:\n%s", got, want.stdout)
			}
			if got := stderr.Bytes(); !bytes.Equal(got, want.stderr) {
				t.Errorf("stderr differs:\n%s\nwant:\n%s", got, want.stderr)
			}
		})
	}
}
