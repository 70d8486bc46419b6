package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/kblink.golden from this run's output")

// TestGolden pins what the program prints. After a deliberate change,
// go test ./cmd/kblink -update rewrites testdata/kblink.golden; review
// its diff.
func TestGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, nil, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	path := filepath.Join("testdata", "kblink.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test ./cmd/kblink -update writes it)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
