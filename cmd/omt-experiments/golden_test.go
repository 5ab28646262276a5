package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file instead when -update is set.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s (re-run with -update if intended)\n got:\n%s\nwant:\n%s",
			path, got, want)
	}
}

// TestGoldenOutput locks down the experiment harness text for the
// deterministic figures and sweeps. -table1 and -fig7 are excluded on
// purpose: their CPUSec columns measure wall time. All other output is a
// pure function of the seed.
func TestGoldenOutput(t *testing.T) {
	cases := []struct {
		name string
		args []string
		// manifest also goldens the run's -json manifest as <name>_json.
		manifest bool
	}{
		// -workers 1 pins the per-size progress lines to size order; trial
		// results themselves are order-independent at any worker count.
		{"figures", []string{"-fig4", "-fig5", "-fig6", "-workers", "1",
			"-sizes", "100,300", "-trials", "2", "-seed", "7"}, false},
		{"churn_faults", []string{"-churn", "-faults", "-workers", "1",
			"-sizes", "100,300", "-trials", "2", "-seed", "7"}, false},
		{"partition", []string{"-faults", "-partition", "-workers", "1",
			"-sizes", "100", "-trials", "2", "-seed", "7"}, false},
		{"drift", []string{"-drift", "-workers", "1",
			"-sizes", "100", "-trials", "2", "-seed", "7"}, false},
		{"groups", []string{"-groups", "-workers", "1",
			"-trials", "2", "-seed", "7"}, false},
		{"recovery", []string{"-recovery", "-workers", "1",
			"-trials", "2", "-seed", "7"}, false},
		{"sections", []string{"-dims", "-repairs", "-baselines", "-workers", "1",
			"-sizes", "100,300", "-trials", "2", "-seed", "7"}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := tc.args
			jsonPath := filepath.Join(t.TempDir(), "manifest.json")
			if tc.manifest {
				args = append(args[:len(args):len(args)], "-json", jsonPath)
			}
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.name, out.Bytes())
			if tc.manifest {
				data, err := os.ReadFile(jsonPath)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, tc.name+"_json", data)
			}
		})
	}
}
