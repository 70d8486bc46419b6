package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quickstart.golden from this run's output")

// TestGolden pins what the program prints. After a deliberate change,
// go test ./examples/quickstart -update rewrites testdata/quickstart.golden;
// review its diff.
func TestGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, nil, &out); err != nil {
		t.Fatal(err)
	}
	got := tempPath.ReplaceAllString(out.String(), "${1}~")
	path := filepath.Join("testdata", "quickstart.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test ./examples/quickstart -update writes it)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// tempPath masks the snapshot's temporary file name, which differs per run.
var tempPath = regexp.MustCompile(`(?m)^(snapshot saved to ).*$`)
