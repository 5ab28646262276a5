package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTraceRequiresFaults: -trace records the fault sweep, so selecting it
// without -faults is a usage error, reported before any file is created.
func TestTraceRequiresFaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	err := run([]string{"-table1", "-sizes", "100", "-trials", "1", "-trace", path}, &out)
	if err == nil || !strings.Contains(err.Error(), "-faults") {
		t.Fatalf("err = %v, want a -trace requires -faults error", err)
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Error("rejected -trace still created the output file")
	}
}

// TestFaultSweepTrace: -faults with -trace writes a valid, non-empty
// Chrome trace-event JSON.
func TestFaultSweepTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	if err := run([]string{"-faults", "-trials", "1", "-trace", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("fault sweep trace has no events")
	}
}

// TestMetricsFailFast: an unwritable -metrics path errors before the sweep.
func TestMetricsFailFast(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing-dir", "m.json")
	var out bytes.Buffer
	err := run([]string{"-table1", "-sizes", "100", "-trials", "1", "-metrics", bad}, &out)
	if err == nil || !strings.Contains(err.Error(), "-metrics") {
		t.Fatalf("err = %v, want a -metrics open error", err)
	}
	if out.Len() != 0 {
		t.Error("sweep ran before the output check")
	}
}

// TestRejectedRunKeepsOutputs: a command line rejected for its flags
// leaves a file already at an output path with its bytes.
func TestRejectedRunKeepsOutputs(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.json")
	want := []byte("earlier run\n")
	for _, args := range [][]string{
		{"-metrics", metrics},
		{"-metrics", metrics, "-table1", "-trace", filepath.Join(dir, "t.json")},
	} {
		if err := os.WriteFile(metrics, want, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%v: accepted", args)
			continue
		}
		if got, err := os.ReadFile(metrics); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%v: -metrics file now holds %q (%v)", args, got, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "t.json")); !os.IsNotExist(err) {
		t.Error("a rejected -trace created its file")
	}
}

// TestTableOutputsFailFast: an unwritable -csv or -json path errors before
// the sweep prints anything, and a -csv with no disk section creates no
// file.
func TestTableOutputsFailFast(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "missing-dir", "out")
	for _, flagName := range []string{"csv", "json"} {
		var out bytes.Buffer
		err := run([]string{"-table1", "-sizes", "100", "-trials", "1", "-" + flagName, bad}, &out)
		if err == nil || !strings.Contains(err.Error(), "-"+flagName) {
			t.Errorf("-%s: err = %v, want an error naming the flag", flagName, err)
		}
		if out.Len() != 0 {
			t.Errorf("-%s: the sweep ran before the output check:\n%s", flagName, out.String())
		}
	}
	csv := filepath.Join(dir, "rows.csv")
	if err := run([]string{"-dims", "-trials", "1", "-csv", csv}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(csv); !os.IsNotExist(err) {
		t.Error("-csv without a disk section created its file")
	}
}
