package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// hasRow reports whether a pprof -top table has at least one data row
// after its header line.
func hasRow(table string) bool {
	_, rows, ok := strings.Cut(table, "flat%")
	if !ok {
		return false
	}
	_, rows, _ = strings.Cut(rows, "\n")
	return strings.Contains(rows, "%")
}

func TestPrintTablesLiveProfiles(t *testing.T) {
	run, _, err := buildWorkload("", "mixed-day", "note9", 42, 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cpuPath, memPath := filepath.Join(dir, "cpu.pb.gz"), filepath.Join(dir, "mem.pb.gz")
	// 300 ms gives the 100 Hz CPU profiler rows to print.
	if _, _, err := writeProfiles(run, 300*time.Millisecond, cpuPath, memPath); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if err := printTables(&out, &errOut, cpuPath, memPath, 5); err != nil {
		t.Fatalf("printTables: %v\nstderr:\n%s", err, errOut.String())
	}
	cpuTable, heapTable, ok := strings.Cut(out.String(), "Type: alloc_space")
	if !ok {
		t.Fatalf("no alloc_space heap table in output:\n%s", out.String())
	}
	if !strings.Contains(cpuTable, "Type: cpu") {
		t.Fatalf("no cpu table before the heap table:\n%s", out.String())
	}
	for name, table := range map[string]string{"cpu": cpuTable, "heap": heapTable} {
		if !hasRow(table) {
			t.Errorf("%s table has no flat%% header or no rows:\n%s", name, table)
		}
	}
}

func TestPrintTablesRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.pb.gz")
	if err := os.WriteFile(garbage, []byte("this is not a profile"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	err := printTables(&out, &errOut, garbage, garbage, 5)
	if err == nil {
		t.Fatalf("garbage profile printed without error:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), garbage) {
		t.Fatalf("error %q does not name the profile", err)
	}
}

func TestBuildWorkloadRejectsUnknownNames(t *testing.T) {
	for _, c := range []struct{ fig, scen, plat string }{
		{fig: "9", scen: "mixed-day", plat: "note9"},
		{scen: "no-such-scenario", plat: "note9"},
		{scen: "mixed-day", plat: "no-such-platform"},
	} {
		if _, _, err := buildWorkload(c.fig, c.scen, c.plat, 1, 0.01, 0); err == nil {
			t.Errorf("buildWorkload(fig %q, scenario %q, platform %q) accepted", c.fig, c.scen, c.plat)
		}
	}
	if _, _, err := buildFleetWorkload(2, "xml", true, 1); err == nil {
		t.Error("buildFleetWorkload accepted -fleet-wire xml")
	}
}
