package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestDeclaredNames fails when BENCHMARK.json and defs.go disagree on a
// workload or a metric, in either direction.
func TestDeclaredNames(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	type row struct {
		name, a, b string
		bound      float64
	}
	var got, want []row
	for _, w := range decl.Workloads {
		got = append(got, row{name: w.Name, a: w.Why})
	}
	for _, w := range workloads {
		want = append(want, row{name: w.name, a: w.why})
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workloads differ:\nBENCHMARK.json %v\ndefs.go        %v", got, want)
	}
	got, want = nil, nil
	for _, m := range decl.EndToEnd {
		got = append(got, row{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range endToEnd {
		want = append(want, row{m.name, m.unit, m.better, m.bound})
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics differ:\nBENCHMARK.json %v\ndefs.go        %v", got, want)
	}
	got, want = nil, nil
	for _, m := range decl.PerLayer {
		got = append(got, row{name: m.Name, a: m.Unit, b: m.Better})
	}
	for _, m := range perLayer {
		want = append(want, row{name: m.name, a: m.unit, b: m.better})
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics differ:\nBENCHMARK.json %v\ndefs.go        %v", got, want)
	}
}

// exactCounts are the ladder's numbers that depend only on the seed.
// serve.resp_bytes_per_query is not among them: which 100 rows a scan
// returns depends on the order the concurrent build inserted the facts.
var exactCounts = []string{
	"core.rows_per_query", "pipeline.candidates", "pipeline.accepted",
	"shardkb.rpcs_per_call", "shardkb.retries", "shardkb.hedges_fired",
}

// TestLadderSmoke runs the in-process ladder of every workload on a
// scale-1 world with 200 requests: no child processes, and no assertion
// on a time. It checks that the ladder emits exactly the declared
// in-process metrics, that every layer agrees with the oracle, that
// the span file has the promised shape, and that counts repeat.
func TestLadderSmoke(t *testing.T) {
	const requests = 200
	for _, w := range workloads {
		w.scale = 1
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			spans := filepath.Join(dir, "spans.jsonl")
			r, err := runLadder(context.Background(), nil, dir, w, 1, requests, spans)
			if err != nil {
				t.Fatal(err)
			}
			if r.tally.failed != 0 || r.tally.attempted < 4*requests {
				t.Fatalf("%d of %d operations failed: %v", r.tally.failed, r.tally.attempted, r.tally.offenders)
			}
			for _, d := range perLayer {
				if _, ok := r.metrics[d.name]; ok == d.live {
					t.Errorf("metric %s: emitted=%v, but live=%v", d.name, ok, d.live)
				}
			}
			declared := map[string]bool{}
			for _, d := range perLayer {
				declared[d.name] = true
			}
			for name := range r.metrics {
				if !declared[name] {
					t.Errorf("metric %s is emitted but not declared", name)
				}
			}
			if r.metrics["shardkb.retries"] != 0 || r.metrics["shardkb.hedges_fired"] != 0 {
				t.Errorf("retries=%v hedges=%v, want 0", r.metrics["shardkb.retries"], r.metrics["shardkb.hedges_fired"])
			}
			if w.hot && r.metrics["qcache.hit_ratio"] == 0 {
				t.Errorf("%s replayed %d Zipf draws without one cache hit", w.name, requests)
			}
			if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
				t.Errorf("span file: %v", err)
			}

			again, err := runLadder(context.Background(), nil, dir, w, 1, requests, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range exactCounts {
				if r.metrics[name] != again.metrics[name] {
					t.Errorf("%s does not repeat for one seed: %v then %v", name, r.metrics[name], again.metrics[name])
				}
			}
		})
	}
}
