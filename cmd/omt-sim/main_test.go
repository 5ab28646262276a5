package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunBasic(t *testing.T) {
	if err := run([]string{"-n", "300", "-degree", "6", "-seed", "2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithFailuresAndRepair(t *testing.T) {
	for _, strategy := range []string{"grandparent", "bestdelay"} {
		if err := run([]string{"-n", "300", "-degree", "2", "-fail", "3", "-repair", strategy}, io.Discard); err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
	}
}

func TestRunWithProcDelay(t *testing.T) {
	if err := run([]string{"-n", "100", "-proc", "0.01"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadStrategy(t *testing.T) {
	if err := run([]string{"-repair", "magic"}, io.Discard); err == nil {
		t.Error("accepted unknown repair strategy")
	}
}

func TestRunFaulty(t *testing.T) {
	if err := run([]string{"-n", "300", "-degree", "6", "-seed", "3",
		"-loss", "0.2", "-crash-rate", "0.005", "-fail", "3", "-packets", "3"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotFlagValidation(t *testing.T) {
	if err := run([]string{"-n", "100", "-snapshot", "x.omts"}, io.Discard); err == nil {
		t.Error("accepted -snapshot on the reliable path (no protocol session)")
	}
	if err := run([]string{"-restore", filepath.Join(t.TempDir(), "missing.omts")}, io.Discard); err == nil {
		t.Error("accepted a missing -restore file")
	}
	if err := run([]string{"-restore", "x.omts", "-loss", "0.1"}, io.Discard); err == nil {
		t.Error("accepted -restore combined with -loss")
	}
	if err := run([]string{"-restore", "x.omts", "-drift", "0.01"}, io.Discard); err == nil {
		t.Error("accepted -restore combined with -drift")
	}
}

func TestRestoreRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.omts")
	if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-restore", path}, io.Discard); err == nil {
		t.Error("restored a corrupt snapshot")
	}
}

func TestRunFaultyRejectsBadRates(t *testing.T) {
	if err := run([]string{"-n", "100", "-loss", "1.5"}, io.Discard); err == nil {
		t.Error("accepted loss rate 1.5")
	}
	if err := run([]string{"-n", "100", "-crash-rate", "-0.1", "-loss", "0.1"}, io.Discard); err == nil {
		t.Error("accepted negative crash rate")
	}
}

// TestRejectedRunKeepsOutputs: a command line rejected for its flags
// leaves a file already at an output path with its bytes.
func TestRejectedRunKeepsOutputs(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"metrics", []string{"-repair", "bogus"}},
		{"metrics", []string{"-join-rate", "2"}},
		{"snapshot", []string{"-drift", "0.01", "-loss", "0.1"}},
	} {
		path := filepath.Join(dir, tc.flag)
		want := []byte("earlier run\n")
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		args := append([]string{"-n", "100", "-" + tc.flag, path}, tc.args...)
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%v: accepted", args)
			continue
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%v: -%s file now holds %q (%v)", args, tc.flag, got, err)
		}
	}
}

// TestRestoreRewritesItsSnapshot: -restore s -snapshot s resumes the
// session, replaces s with the resumed state, and that s restores again.
func TestRestoreRewritesItsSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.omts")
	if err := run([]string{"-n", "200", "-seed", "3", "-loss", "0.1", "-fail", "2", "-snapshot", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		var out bytes.Buffer
		if err := run([]string{"-restore", path, "-snapshot", path}, &out); err != nil {
			t.Fatalf("restore %d: %v", i+1, err)
		}
		if !strings.Contains(out.String(), "resumed: audit clean") {
			t.Fatalf("restore %d did not resume:\n%s", i+1, out.String())
		}
	}
	again, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(first, again) {
		t.Error("the resumed runs left the first checkpoint in place")
	}
}
