package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"gfd"
)

// TestMain runs the command instead of the tests when runMain re-executes
// the test binary with GFD_CLI_MAIN set, so a case goes through the real
// flag parsing and exit path.
func TestMain(m *testing.M) {
	if os.Getenv("GFD_CLI_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs gfdcheck with args and returns its combined output and exit
// status.
func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GFD_CLI_MAIN=1")
	out, err := cmd.CombinedOutput()
	if _, exited := err.(*exec.ExitError); err != nil && !exited {
		t.Fatal(err)
	}
	return string(out), cmd.ProcessState.ExitCode()
}

// TestRejectsWorkersBelowOne: the engines would run -n 0 or -n -1 with
// their default worker count while gfdcheck reports the flag's value, so
// the flag is refused as an input error (exit 2) before any file is read.
func TestRejectsWorkersBelowOne(t *testing.T) {
	for _, n := range []string{"0", "-1"} {
		out, code := runMain(t, "-graph", "missing.graph", "-rules", "missing.gfd", "-n", n)
		if code != 2 || !strings.Contains(out, "-n "+n+":") {
			t.Errorf("gfdcheck -n %s: exit %d, output %q; want exit 2 naming the flag", n, code, out)
		}
	}
}

// TestSnapshotVersionHint: a snapshot file of an older format fails to
// open as gfd.ErrSnapshotVersion, and gfdcheck's message says how to
// regenerate it.
func TestSnapshotVersionHint(t *testing.T) {
	var path string
	for _, version := range []int{2, 3} {
		path = fmt.Sprintf("../../internal/store/testdata/v%d.gfds", version)
		_, _, err := gfd.OpenSnapshot(context.Background(), path)
		if !errors.Is(err, gfd.ErrSnapshotVersion) {
			t.Fatalf("OpenSnapshot(format %d file) = %v, want ErrSnapshotVersion", version, err)
		}
		msg := snapshotErr(path, err)
		if !errors.Is(msg, gfd.ErrSnapshotVersion) || !strings.Contains(msg.Error(), "gfdgen -snapshot") {
			t.Fatalf("message %q does not keep the error and name gfdgen -snapshot", msg)
		}
	}
	if other := errors.New("boom"); snapshotErr(path, other) != other {
		t.Fatal("snapshotErr changed an error of another kind")
	}
}

// TestVerboseListsIDsAsIntegers: -v lists a rule's violations by node ID
// as an integer, so the one through node 9 comes before the one through
// node 10 (as text, "10" sorts first), whatever the engine.
func TestVerboseListsIDsAsIntegers(t *testing.T) {
	dir := t.TempDir()
	var graph strings.Builder
	for id := range 11 {
		ok := "yes"
		if id >= 9 {
			ok = "no"
		}
		fmt.Fprintf(&graph, "node n%d a ok=%s\n", id, ok)
	}
	rules := "gfd r {\n  node x a\n  then x.ok = yes\n}\n"
	gp, rp := filepath.Join(dir, "g.graph"), filepath.Join(dir, "r.gfd")
	if err := os.WriteFile(gp, []byte(graph.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(rp, []byte(rules), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"seq", "rep", "dis"} {
		out, code := runMain(t, "-graph", gp, "-rules", rp, "-mode", mode, "-n", "2", "-v")
		i9, i10 := strings.Index(out, "r: n9(a)"), strings.Index(out, "r: n10(a)")
		if code != 1 || i9 < 0 || i10 < 0 || i9 > i10 {
			t.Errorf("gfdcheck -mode %s -v: exit %d, output\n%s\nwant exit 1 listing n9 before n10", mode, code, out)
		}
	}
}
