package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"D1", "D2", "D3", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8",
		"S6a", "S6b", "T1", "T3", "T4", "X1", "X10", "X11", "X12", "X2", "X3", "X4", "X5", "X6", "X7", "X8", "X9"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("experiment %d = %q, want %q", i, all[i].ID, id)
		}
		if all[i].Title == "" || all[i].Run == nil {
			t.Errorf("experiment %q incomplete", id)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("T1")
	if err != nil || e.ID != "T1" {
		t.Fatalf("ByID(T1) = %v, %v", e.ID, err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("ByID accepted unknown id")
	}
}

// Every experiment must run cleanly; each internally verifies its
// paper bound and returns an error on violation. The quick ones run
// with full output checks; the heavyweight ones (T1 at n=65536 etc.)
// run in -short mode with a discard writer only when not short.
func TestAllExperimentsRun(t *testing.T) {
	heavy := map[string]bool{"T1": true, "X12": true, "F4": true, "F7": true, "S6a": true, "X2": true, "X3": true, "X5": true, "D2": true}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && heavy[e.ID] {
				t.Skip("heavy experiment skipped in -short mode")
			}
			var buf bytes.Buffer
			if err := e.Run(&buf); err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			out := buf.String()
			if !strings.Contains(out, e.ID+":") {
				t.Errorf("%s output missing section header", e.ID)
			}
			if strings.Contains(out, "VIOLATION") {
				t.Errorf("%s reported a bound violation:\n%s", e.ID, out)
			}
		})
	}
}

func TestExperimentOutputsContainKeyRows(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	checks := map[string][]string{
		"F3": {"revsort", "delivered histogram"},
		"F6": {"columnsort", "delivered histogram"},
		"F8": {"w², paper"},
		"D1": {"3 lg n", "4β lg n", "netlist depth"},
		"X1": {"rev(i) (paper)", "identity"},
		"X4": {"p=  128"},
	}
	for id, wants := range checks {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Run(&buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, want := range wants {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("%s output missing %q:\n%s", id, want, buf.String())
			}
		}
	}
}
