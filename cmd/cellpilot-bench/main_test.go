package main

import (
	"sort"
	"strings"
	"testing"
)

func TestValidateExp(t *testing.T) {
	for _, e := range experiments {
		if err := validateExp(e); err != nil {
			t.Errorf("validateExp(%q) = %v, want nil", e, err)
		}
	}
	err := validateExp("pingpnog")
	if err == nil {
		t.Fatal("typo'd experiment accepted")
	}
	// The error must teach: it names the bad value and lists every valid one.
	msg := err.Error()
	if !strings.Contains(msg, "pingpnog") {
		t.Errorf("error does not name the bad value: %v", err)
	}
	for _, e := range experiments {
		if !strings.Contains(msg, e) {
			t.Errorf("error does not list %q: %v", e, err)
		}
	}
}

// TestExperimentsAlphabetized: the -exp list stays sorted (with the "all"
// catch-all last) so the usage text and the validateExp error read as a
// directory, not an accretion log.
func TestExperimentsAlphabetized(t *testing.T) {
	if experiments[len(experiments)-1] != "all" {
		t.Fatalf("experiments must end with %q, got %q", "all", experiments[len(experiments)-1])
	}
	named := experiments[:len(experiments)-1]
	if !sort.StringsAreSorted(named) {
		t.Fatalf("experiment names not alphabetized: %v", named)
	}
}
