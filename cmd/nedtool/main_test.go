package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/nedtool.golden from this run's output")

// TestGolden pins what the program prints. After a deliberate change,
// go test ./cmd/nedtool -update rewrites testdata/nedtool.golden;
// review its diff.
func TestGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader(input), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	path := filepath.Join("testdata", "nedtool.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test ./cmd/nedtool -update writes it)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// input holds mentions of nedtool's default world (scale 0.5, seed 42):
// "Griortrais" is a family name that persons and a company share, and
// the other two name one entity each.
const input = "Griortrais joined Duduno Dynamics after leaving Slimgiondo.\n"
