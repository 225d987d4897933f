package main

import (
	"strings"
	"testing"
)

// TestStrayArgumentRejected: flag parsing stops at the first positional
// argument, so a stray word used to drop every flag after it — `-q stray
// -k 0` ran with the default k and exited 0. Every subcommand now refuses it
// with exit 2, and the run path lists the subcommands the word may have
// meant.
func TestStrayArgumentRejected(t *testing.T) {
	for name, args := range map[string][]string{
		"run (bare flags)": {"-task", "matching", "-gen", "gnp", "-n", "200", "-q", "stray", "-k", "0"},
		"run":              {"run", "-gen", "gnp", "stray"},
		"ingest":           {"ingest", "-gen", "gnp", "-out", t.TempDir(), "stray"},
		"serve":            {"serve", "-addr", "127.0.0.1:0", "stray"},
		"worker":           {"worker", "stray"},
		"load":             {"load", "-jobs", "1", "stray"},
		"experiments":      {"experiments", "-quick", "stray", "-run", "E1"},
	} {
		out, errOut, code := runCLI(t, args...)
		if code != 2 || !strings.Contains(errOut, `unexpected argument "stray"`) {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 naming the argument", name, code, errOut)
		}
		if out != "" {
			t.Errorf("%s: ran anyway, stdout %q", name, out)
		}
		if strings.HasPrefix(name, "run") && !strings.Contains(errOut, "subcommands: run, ingest, serve, worker, load, experiments") {
			t.Errorf("%s: stderr %q does not list the subcommands", name, errOut)
		}
	}
}

// TestMaxRetriesNegativeRejected: a negative replay budget is an error in
// every subcommand that takes one, never a silent fallback to the default.
func TestMaxRetriesNegativeRejected(t *testing.T) {
	for name, args := range map[string][]string{
		"run":   {"-task", "matching", "-gen", "gnp", "-n", "200", "-cluster", "local", "-k", "2", "-max-retries", "-7"},
		"serve": {"serve", "-addr", "127.0.0.1:0", "-cluster", "127.0.0.1:1", "-max-retries", "-7"},
	} {
		_, errOut, code := runCLI(t, args...)
		if code != 2 || !strings.Contains(errOut, "-max-retries must be >= 0 (got -7)") {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 naming the flag", name, code, errOut)
		}
	}
}

// TestServeMaxRetriesRequiresCluster: serve follows the rule run already
// keeps — a replay budget without a fleet to replay on is an error.
func TestServeMaxRetriesRequiresCluster(t *testing.T) {
	_, errOut, code := runCLI(t, "serve", "-addr", "127.0.0.1:0", "-max-retries", "1")
	if code != 2 || !strings.Contains(errOut, "-max-retries requires -cluster") {
		t.Fatalf("exit %d, stderr %q; want exit 2 naming the flag", code, errOut)
	}
}
