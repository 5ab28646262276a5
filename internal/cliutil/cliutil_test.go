package cliutil

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/obs"
	"omtree/internal/obs/flight"
	"omtree/internal/protocol"
)

// flags returns a parsed flag set holding the flight-interval flag, given
// or not.
func flags(t *testing.T, args ...string) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.Int("flight-interval", 1, "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return fs
}

// prewrite leaves a file with known bytes at path and returns them.
func prewrite(t *testing.T, path string) []byte {
	t.Helper()
	want := []byte("earlier run\n")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	return want
}

func checkBytes(t *testing.T, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s holds %q, want %q", filepath.Base(path), got, want)
	}
}

// A rejected invocation leaves every output path as it was, and the body
// never runs.
func TestRunRejectsBeforeTouchingFiles(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.json")
	want := prewrite(t, metrics)
	fresh := filepath.Join(dir, "fresh.json")
	cases := []struct {
		name string
		fs   *flag.FlagSet
		o    Outputs
		want string
	}{
		{"interval without flight", flags(t, "-flight-interval", "1"),
			Outputs{Metrics: metrics, OpenMetrics: fresh}, "-flight-interval requires -flight"},
		{"slo without flight", flags(t),
			Outputs{Metrics: metrics, OpenMetrics: fresh, SLO: "a > 1"}, "-slo requires -flight"},
		{"bad slo", flags(t),
			Outputs{Metrics: metrics, Flight: fresh, SLO: "not a rule"}, "-slo:"},
		{"snapshot dir missing", flags(t),
			Outputs{Metrics: metrics, Snapshot: filepath.Join(dir, "no", "s.omts")}, "-snapshot:"},
		{"snapshot is a directory", flags(t),
			Outputs{Metrics: metrics, Snapshot: dir}, "-snapshot:"},
		{"bad pprof address", flags(t),
			Outputs{Metrics: metrics, Pprof: ":-1"}, "pprof:"},
		{"later path unwritable", flags(t),
			Outputs{Metrics: metrics, OpenMetrics: fresh, Files: []File{{Flag: "json", Path: filepath.Join(dir, "no", "x.json")}}}, "-json:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Run(tc.fs, tc.o, io.Discard, func(*Env) error {
				t.Error("the body ran")
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
			checkBytes(t, metrics, want)
			if _, err := os.Stat(fresh); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("the rejected run left %s behind (%v)", filepath.Base(fresh), err)
			}
		})
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("directory holds %d entries, want only the pre-written file", len(entries))
	}
}

func TestCreateOutputEmptyPathIsOff(t *testing.T) {
	outs := []*output{{flag: "metrics"}, {flag: "json"}}
	if err := create(outs); err != nil {
		t.Fatal(err)
	}
	for _, out := range outs {
		if out.f != nil {
			t.Errorf("-%s with an empty path opened a file", out.flag)
		}
	}
}

// An unwritable destination fails at creation time, before the run, and
// the error names the flag. The files opened before it keep their bytes,
// and one that did not exist is removed again.
func TestCreateOutputFailsFast(t *testing.T) {
	dir := t.TempDir()
	metrics, fresh := filepath.Join(dir, "m.json"), filepath.Join(dir, "om.txt")
	want := prewrite(t, metrics)
	outs := []*output{
		{flag: "metrics", path: metrics},
		{flag: "openmetrics", path: fresh},
		{flag: "flight", path: filepath.Join(dir, "no", "such", "dir", "x.jsonl")},
	}
	err := create(outs)
	if err == nil || !strings.Contains(err.Error(), "-flight") {
		t.Fatalf("err = %v, want an error naming -flight", err)
	}
	checkBytes(t, metrics, want)
	if _, err := os.Stat(fresh); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the failed creation left %s behind (%v)", filepath.Base(fresh), err)
	}
}

// With every output off, no recorder is built and nothing is written.
func TestWritersNilFileNoop(t *testing.T) {
	var stdout bytes.Buffer
	err := Run(flags(t), Outputs{}, &stdout, func(env *Env) error {
		if env.Reg != nil || env.Trace != nil || env.Flight != nil {
			t.Error("a recorder nobody asked for was built")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want nothing", stdout.String())
	}
}

func TestWriteMetricsJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	err := Run(flags(t), Outputs{Metrics: path}, io.Discard, func(env *Env) error {
		env.Reg.Counter("a/b").Add(3)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics file is not a snapshot: %v", err)
	}
	if len(snap.Counters) == 0 || snap.Counters[0].Name != "a/b" {
		t.Fatalf("snapshot missing counter: %+v", snap)
	}
}

// The flight recorder's artifacts: the JSONL ring, OpenMetrics with its
// rate families, and the health report on stdout; without a recorder the
// OpenMetrics file is the plain registry exposition.
func TestWriteFlightArtifacts(t *testing.T) {
	dir := t.TempDir()
	o := Outputs{
		Flight: filepath.Join(dir, "f.jsonl"), OpenMetrics: filepath.Join(dir, "om.txt"),
		SLO: "busy: a/b > 0",
	}
	var report bytes.Buffer
	err := Run(flags(t), o, &report, func(env *Env) error {
		env.Reg.Counter("a/b").Add(1)
		env.Flight.Tick()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.Flight)
	if err != nil {
		t.Fatal(err)
	}
	var s flight.Sample
	if err := json.Unmarshal(bytes.TrimSpace(data), &s); err != nil {
		t.Fatalf("flight file is not JSONL samples: %v", err)
	}
	if s.Counters["a/b"] != 1 {
		t.Fatalf("sample missing counter: %+v", s)
	}
	om, err := os.ReadFile(o.OpenMetrics)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(om, []byte("omtree_a_b_total 1")) || !bytes.Contains(om, []byte("omtree_flight_")) ||
		!bytes.HasSuffix(om, []byte("# EOF\n")) {
		t.Fatalf("openmetrics output malformed:\n%s", om)
	}
	if !strings.Contains(report.String(), "flight health report") || !strings.Contains(report.String(), "busy: a/b > 0") {
		t.Fatalf("report malformed:\n%s", report.String())
	}

	plain := filepath.Join(dir, "om2.txt")
	err = Run(flags(t), Outputs{OpenMetrics: plain}, io.Discard, func(env *Env) error {
		if env.Flight != nil {
			t.Error("a flight recorder was built without -flight")
		}
		env.Reg.Counter("a/b").Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	om2, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(om2, []byte("omtree_a_b_total 1")) || bytes.Contains(om2, []byte("omtree_flight_")) {
		t.Fatalf("plain openmetrics output malformed:\n%s", om2)
	}
}

// The trace outputs are written from what the body left, and a CLI's own
// files after them, in list order.
func TestRunWritesTraceAndTables(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	var rows string
	var order []string
	file := func(flag, name string) File {
		return File{Flag: flag, Path: path(name), Write: func(w io.Writer) error {
			order = append(order, flag)
			if fi, err := os.Stat(path("t.txt")); err != nil || fi.Size() == 0 {
				t.Errorf("-%s written before the telemetry files (%v)", flag, err)
			}
			_, err := io.WriteString(w, rows)
			return err
		}}
	}
	o := Outputs{
		Trace: path("t.json"), TraceText: path("t.txt"),
		Files: []File{file("csv", "rows.csv"), {Flag: "off"}, file("json", "manifest.json")},
	}
	err := Run(flags(t), o, io.Discard, func(env *Env) error {
		env.Trace.Emit(env.Trace.NewTrace(), 0, "test/event", 1, 2, "")
		rows = "n\n1\n"
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	read := func(name string) string {
		t.Helper()
		data, err := os.ReadFile(path(name))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if !strings.Contains(read("t.json"), `"traceEvents"`) {
		t.Error("trace file is not Chrome trace JSON")
	}
	if !strings.Contains(read("t.txt"), "test/event") {
		t.Error("trace text lacks the event")
	}
	if got := read("rows.csv"); got != "n\n1\n" {
		t.Errorf("csv = %q", got)
	}
	if got := read("manifest.json"); got != "n\n1\n" {
		t.Errorf("json = %q", got)
	}
	if len(order) != 2 || order[0] != "csv" || order[1] != "json" {
		t.Errorf("files written in order %v, want [csv json]", order)
	}
}

// A failed body returns its error and writes nothing into the files it
// was given.
func TestRunBodyErrorWritesNothing(t *testing.T) {
	dir := t.TempDir()
	metrics, snap := filepath.Join(dir, "m.json"), filepath.Join(dir, "s.omts")
	boom := errors.New("boom")
	err := Run(flags(t), Outputs{Metrics: metrics, Snapshot: snap}, io.Discard, func(*Env) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the body's error", err)
	}
	checkBytes(t, metrics, nil)
	if _, err := os.Stat(snap); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a failed run wrote the snapshot (%v)", err)
	}
}

// -snapshot replaces its file with the body's session, restorable, and
// fails when no session ran.
func TestRunSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.omts")
	prewrite(t, path)
	err := Run(flags(t), Outputs{Snapshot: path}, io.Discard, func(*Env) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "no protocol session ran") {
		t.Fatalf("err = %v, want a no-session error", err)
	}
	o, err := protocol.New(protocol.Config{Source: geom.Point2{}, Scale: 1, K: 2, MaxOutDegree: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, _, err := o.Join(geom.Point2{X: 0.04 * float64(i+1)}); err != nil {
			t.Fatal(err)
		}
	}
	err = Run(flags(t), Outputs{Snapshot: path}, io.Discard, func(env *Env) error {
		env.Overlay = o
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	back, err := protocol.RestoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != o.N() {
		t.Errorf("restored %d members, wrote %d", back.N(), o.N())
	}
}
