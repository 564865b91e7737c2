package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"gfd/internal/exp"
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

// runMain runs gfdbench with args and returns its combined output and exit
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

// TestRejectsBadCounts: the experiment config replaces a count below 1
// with its default, so -q 0 used to run and title its table |Q|=5, -rules 0
// ran ‖Σ‖=10 and -scale -3 ran scale 300; -two-comp outside [0, 1] was
// taken as given. Each is an input error now (exit 2, naming the flag),
// refused before any experiment runs.
func TestRejectsBadCounts(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-scale -3", []string{"-exp", "fig7", "-scale", "-3"}},
		{"-rules 0", []string{"-exp", "fig7", "-scale", "20", "-rules", "0"}},
		{"-q 0", []string{"-exp", "fig7", "-scale", "20", "-q", "0"}},
		{"-two-comp 2", []string{"-exp", "fig7", "-scale", "20", "-two-comp", "2"}},
		{"-two-comp -0.5", []string{"-exp", "fig7", "-scale", "20", "-two-comp", "-0.5"}},
	} {
		out, code := runMain(t, tc.args...)
		if code != 2 || !strings.Contains(out, tc.flag+":") {
			t.Errorf("gfdbench %s: exit %d, output %q; want exit 2 naming the flag", strings.Join(tc.args, " "), code, out)
		}
	}
}

// TestFig9RowFields: a row with 12 rules and 314.8 ms printed its time as
// "12314.800603ms" (`%12v` of the duration fused the two columns); the
// millisecond column keeps five whitespace-separated fields.
func TestFig9RowFields(t *testing.T) {
	row := fig9Row(exp.AccuracyRow{Model: "BigDansing", Recall: 0.68, Precision: 1, Rules: 12, Time: 314800603 * time.Nanosecond})
	if f := strings.Fields(row); len(f) != 5 || f[3] != "12" || f[4] != "314.8" {
		t.Fatalf("row %q splits into %q, want 5 fields ending in 12 and 314.8", row, f)
	}
}
