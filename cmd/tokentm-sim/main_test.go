package main

import (
	"strings"
	"testing"

	"tokentm"
)

// TestBreakdownReport: -breakdown prints one row per variant, normalized so
// the LogTM-SE_Perf row totals 100.
func TestBreakdownReport(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-workload", "Genome", "-scale", "0.002", "-breakdown"}, &out); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || f[0] != "Genome" {
			continue
		}
		rows++
		if f[1] == string(tokentm.VariantLogTMSEPerf) && f[len(f)-1] != "100.0" {
			t.Errorf("LogTM-SE_Perf row totals %s, want 100.0: %q", f[len(f)-1], line)
		}
	}
	if rows != len(tokentm.Variants()) {
		t.Errorf("%d variant rows, want %d:\n%s", rows, len(tokentm.Variants()), out.String())
	}
}

// TestTraceReport: -trace N prints the run report and then the event dump.
func TestTraceReport(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-workload", "Genome", "-scale", "0.002", "-trace", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"execution: ", "conflicts=", "\n--- last 8 of "} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

// TestRejectsBadInput: a scale outside (0, 1], an unknown workload and an
// unknown variant are errors, not a full-scale run or a panic.
func TestRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "0"},
		{"-workload", "Nope"},
		{"-variant", "Nope"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("run(%q) = nil error; output:\n%s", args, out.String())
		}
	}
}
