package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"spatialhist/internal/dataset"
)

// TestRunWritesLoadableFiles: for every dataset name, the binary file and
// the CSV that run writes load back as exactly the objects Generate draws
// for the same name, count and seed.
func TestRunWritesLoadableFiles(t *testing.T) {
	const n, seed = 300, 11
	for _, name := range dataset.Names() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			bin, csvPath := filepath.Join(dir, name+".bin"), filepath.Join(dir, name+".csv")
			var stdout, stderr bytes.Buffer
			err := run([]string{"-dataset", name, "-n", "300", "-seed", "11", "-out", bin, "-csv", csvPath}, &stdout, &stderr)
			if err != nil {
				t.Fatalf("run: %v (stderr %q)", err, stderr.String())
			}
			want, err := dataset.Generate(name, n, seed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dataset.Load(bin)
			if err != nil {
				t.Fatal(err)
			}
			if got.Name != want.Name || got.Extent != want.Extent || !slices.Equal(got.Rects, want.Rects) {
				t.Errorf("%s does not load back as Generate(%q, %d, %d)", bin, name, n, seed)
			}
			f, err := os.Open(csvPath)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			fromCSV, err := dataset.ReadCSV(f, name)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(fromCSV.Rects, want.Rects) {
				t.Errorf("%s does not hold Generate(%q, %d, %d)'s objects", csvPath, name, n, seed)
			}
			for _, line := range []string{want.String(), "wrote " + bin, "wrote " + csvPath} {
				if !strings.Contains(stdout.String(), line) {
					t.Errorf("stdout %q does not report %q", stdout.String(), line)
				}
			}
		})
	}
}

// TestRunSummary: -summary prints the distribution summary and the
// center plot.
func TestRunSummary(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-dataset", "adl", "-n", "200", "-summary"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, stderr.String())
	}
	d, _ := dataset.Generate("adl", 200, 2002)
	for _, part := range []string{d.String(), "center distribution:", dataset.Summarize(d).String()} {
		if !strings.Contains(stdout.String(), part) {
			t.Errorf("stdout lacks %q:\n%s", part, stdout.String())
		}
	}
}

// TestRunRefusesBadCommandLines: each command line fails with an error
// and writes neither the -out nor the -csv file it names. Flags the flag package refuses — among them
// the polygon flags -poly, -stars, -rects, -nx, -ny and -hist, retired with
// polygon rasterization — are usage errors.
func TestRunRefusesBadCommandLines(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		usage bool
	}{
		{"unknown-dataset", []string{"-dataset", "tiger"}, false},
		{"unknown-dataset-paper-size", []string{"-dataset", "tiger", "-n", "0"}, false},
		{"negative-count", []string{"-n", "-5"}, false},
		{"count-not-a-number", []string{"-n", "many"}, true},
		{"seed-not-a-number", []string{"-seed", "x"}, true},
		{"poly", []string{"-poly"}, true},
		{"stars", []string{"-stars", "0.25"}, true},
		{"rects", []string{"-rects", "0.2"}, true},
		{"nx", []string{"-nx", "360"}, true},
		{"ny", []string{"-ny", "180"}, true},
		{"hist", []string{"-hist", "h.bin"}, true},
		{"out-dir-missing", []string{"-n", "10", "-out", "missing/d.bin"}, false},
		{"csv-dir-missing", []string{"-n", "10", "-csv", "missing/d.csv"}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Output paths are rooted in the test's own directory; a case
			// that names none gets both, so a run that wrongly succeeds
			// leaves files behind.
			dir := t.TempDir()
			args := []string{"-out", filepath.Join(dir, "d.bin"), "-csv", filepath.Join(dir, "d.csv")}
			for _, a := range tc.args {
				if strings.HasPrefix(a, "missing/") {
					a, args = filepath.Join(dir, a), args[4:]
				}
				args = append(args, a)
			}
			var stdout, stderr bytes.Buffer
			err := run(args, &stdout, &stderr)
			if err == nil {
				t.Fatalf("run(%q) succeeded", args)
			}
			var usage usageError
			if errors.As(err, &usage) != tc.usage {
				t.Errorf("run(%q) = %v; usage error %v, want %v", args, err, !tc.usage, tc.usage)
			}
			if tc.usage && !strings.Contains(stderr.String(), "Usage of spatialgen") {
				t.Errorf("usage error printed no usage: %q", stderr.String())
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 0 {
				t.Errorf("run(%q) left %v behind", args, entries)
			}
		})
	}
}

// TestRunHelp: -h prints the usage and returns flag.ErrHelp, which main
// treats as success.
func TestRunHelp(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-h"}, &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
	for _, f := range []string{"-dataset", "-n", "-seed", "-out", "-csv", "-summary"} {
		if !strings.Contains(stderr.String(), f) {
			t.Errorf("usage does not list %s:\n%s", f, stderr.String())
		}
	}
}
