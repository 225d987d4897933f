package main

import (
	"fmt"
	"strings"
	"testing"
)

// TestExperimentsList: -list names every registered experiment, E1 to E22.
func TestExperimentsList(t *testing.T) {
	out, errOut, code := runCLI(t, "experiments", "-list")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	for i := 1; i <= 22; i++ {
		if id := fmt.Sprintf("E%d ", i); !strings.Contains(out, "\n"+id) && !strings.HasPrefix(out, id) {
			t.Errorf("-list does not name %s:\n%s", id, out)
		}
	}
}

// TestExperimentsUnknownID: a typo fails before anything runs, naming the id.
func TestExperimentsUnknownID(t *testing.T) {
	out, errOut, code := runCLI(t, "experiments", "-quick", "-run", "E1,E99")
	if code == 0 || !strings.Contains(errOut, `"E99"`) || out != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want a failure naming E99 before any run", code, out, errOut)
	}
}

// TestExperimentsQuickRun: one quick experiment prints its section.
func TestExperimentsQuickRun(t *testing.T) {
	out, errOut, code := runCLI(t, "experiments", "-quick", "-run", "E1")
	if code != 0 || !strings.HasPrefix(out, "### E1 — ") {
		t.Fatalf("exit %d, stderr %q, stdout:\n%s", code, errOut, out)
	}
}
