package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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

// runMain runs gfdgen with args and returns its combined output and exit
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

// TestRejectsBadCounts: a negative -scale used to panic in the graph
// constructor and a negative -fragments silently wrote no shards. Each is
// an input error now (exit 2, naming the flag), and nothing is written.
func TestRejectsBadCounts(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "g.gfds")
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-scale -5", []string{"-scale", "-5", "-out", filepath.Join(dir, "g.graph")}},
		{"-scale 0", []string{"-scale", "0", "-snapshot", snap}},
		{"-fragments -2", []string{"-scale", "10", "-snapshot", snap, "-fragments", "-2"}},
	} {
		out, code := runMain(t, tc.args...)
		if code != 2 || !strings.Contains(out, tc.flag+":") {
			t.Errorf("gfdgen %s: exit %d, output %q; want exit 2 naming the flag", strings.Join(tc.args, " "), code, out)
		}
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("rejected runs left %d files (%v)", len(ents), err)
	}
}
