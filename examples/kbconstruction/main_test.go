package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/kbconstruction.golden from this run's output")

// TestGolden pins what the program prints. After a deliberate change,
// go test ./examples/kbconstruction -update rewrites
// testdata/kbconstruction.golden; review its diff.
func TestGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, nil, &out); err != nil {
		t.Fatal(err)
	}
	got := stageDuration.ReplaceAllString(out.String(), "$1 ~ $2")
	path := filepath.Join("testdata", "kbconstruction.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test ./examples/kbconstruction -update writes it)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// stageDuration masks the stage-timing column, the one part of the
// output that differs per run, with the padding around it.
var stageDuration = regexp.MustCompile(`(?m)^(  \S+) +\S+ +(\d+ items)$`)
