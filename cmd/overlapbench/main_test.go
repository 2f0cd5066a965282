package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLI builds the overlapbench binary once per test binary into a
// temporary directory and returns its path.
func buildCLI(t *testing.T) string {
	t.Helper()
	exe := filepath.Join(t.TempDir(), "overlapbench")
	cmd := exec.Command("go", "build", "-o", exe, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return exe
}

// TestCLIArgValidation is the table-driven argument-handling test: unknown
// experiment names, unknown subcommands, trailing junk, bad flag values and
// unwritable tune outputs must exit non-zero with a message instead of
// silently running the default path, while valid invocations keep exiting
// zero.
func TestCLIArgValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binary")
	}
	exe := buildCLI(t)
	csvDir := t.TempDir()
	missingTable := filepath.Join(csvDir, "missing", "T.json")
	cases := []struct {
		name     string
		args     []string
		wantOK   bool
		wantCode int    // required non-zero exit status (0 = any)
		wantOut  string // substring of combined output
		wantFile string // file that must exist afterwards
	}{
		{name: "unknown experiment", args: []string{"bogus"},
			wantOut: `unknown experiment or subcommand "bogus"`},
		{name: "typo of known experiment", args: []string{"fig33"},
			wantOut: "usage: overlapbench"},
		{name: "trailing junk after experiment", args: []string{"fig4", "extraneous"},
			wantOut: `unknown experiment or subcommand "extraneous"`},
		{name: "tune trailing junk", args: []string{"tune", "-quick", "junk"},
			wantOut: "usage: overlapbench tune"},
		{name: "mlwork trailing junk", args: []string{"mlwork", "-quick", "extra"},
			wantOut: "usage: overlapbench mlwork"},
		{name: "mlwork unknown flag", args: []string{"mlwork", "-frobnicate"},
			wantOut: "flag provided but not defined"},
		{name: "bench-host trailing junk", args: []string{"bench-host", "junk"},
			wantCode: 2, wantOut: `unknown experiment or subcommand "bench-host"`},
		{name: "bench-diff missing paths", args: []string{"bench-diff"},
			wantCode: 2, wantOut: `unknown experiment or subcommand "bench-diff"`},
		{name: "trace without fig6", args: []string{"-trace", filepath.Join(csvDir, "t.json"), "fig4"},
			wantCode: 2, wantOut: "-trace exports the fig6 timeline"},
		{name: "tuned without paperscale", args: []string{"-tuned", "-table", missingTable, "fig4"},
			wantCode: 2, wantOut: "-tuned applies to paperscale"},
		{name: "valid experiment", args: []string{"fig4"},
			wantOK: true, wantOut: "fig4 regenerated"},
		{name: "mlwork quick with csv", args: []string{"mlwork", "-quick", "-csv", csvDir},
			wantOK: true, wantOut: "ML-workload patterns",
			wantFile: filepath.Join(csvDir, "mlwork.csv")},
		{name: "progress trailing junk", args: []string{"progress", "-quick", "extra"},
			wantOut: "usage: overlapbench progress"},
		{name: "progress unknown flag", args: []string{"progress", "-frobnicate"},
			wantOut: "flag provided but not defined"},
		{name: "progress quick with csv", args: []string{"progress", "-quick", "-csv", csvDir},
			wantOK: true, wantOut: "progress/ppn",
			wantFile: filepath.Join(csvDir, "progress.csv")},
		{name: "negative n table3", args: []string{"-n", "-5", "table3"},
			wantOut: "N = -5"},
		{name: "negative n ablate", args: []string{"-n", "-5", "ablate"},
			wantOut: "N = -5"},
		{name: "removed serve subcommand", args: []string{"serve"},
			wantCode: 2, wantOut: `unknown experiment or subcommand "serve"`},
		{name: "negative workers", args: []string{"-workers", "-3", "fig4"},
			wantOut: "-workers -3"},
		{name: "removed tune cache flag", args: []string{"tune", "-cache"},
			wantOut: "flag provided but not defined"},
		{name: "removed noise flag", args: []string{"-noise"},
			wantCode: 2, wantOut: "flag provided but not defined"},
		{name: "tune missing table directory", args: []string{"tune", "-quick", "-table", missingTable},
			wantOut: "cannot write " + missingTable},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(exe, tc.args...).CombinedOutput()
			if ok := err == nil; ok != tc.wantOK {
				t.Fatalf("args %q: exit ok=%v, want %v\noutput:\n%s", tc.args, ok, tc.wantOK, out)
			}
			if ee, ok := err.(*exec.ExitError); ok && tc.wantCode != 0 && ee.ExitCode() != tc.wantCode {
				t.Errorf("args %q: exit status %d, want %d", tc.args, ee.ExitCode(), tc.wantCode)
			}
			if !strings.Contains(string(out), tc.wantOut) {
				t.Errorf("args %q: output missing %q:\n%s", tc.args, tc.wantOut, out)
			}
			if tc.wantFile != "" {
				if _, err := os.Stat(tc.wantFile); err != nil {
					t.Errorf("args %q: expected artifact: %v", tc.args, err)
				}
			}
		})
	}
}

// TestProfileFlushOnError pins the profile-flag contract: when an
// invocation fails, -cpuprofile and -memprofile must still be flushed —
// one profiles exactly the runs that misbehave, so an error path that
// os.Exits past the profile writers drops the evidence. Every failure now
// returns through realMain, whose defers stop the CPU profile and write
// the heap profile before the process exits non-zero.
func TestProfileFlushOnError(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binary")
	}
	exe := buildCLI(t)
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	args := []string{
		"-cpuprofile", cpu, "-memprofile", mem,
		"tune", "-quick", "-table", filepath.Join(dir, "missing", "T.json"),
	}
	out, err := exec.Command(exe, args...).CombinedOutput()
	if err == nil {
		t.Fatalf("args %q: want non-zero exit for an unwritable table\noutput:\n%s", args, out)
	}
	if !strings.Contains(string(out), "tune:") {
		t.Errorf("args %q: output missing the tune error:\n%s", args, out)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile not written on the error path: %v", err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("%s: empty profile — writer not flushed before exit", p)
		}
	}
}
