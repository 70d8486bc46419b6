// Benchrunner regenerates the table of every experiment in
// experiments.All() (benchrunner -list prints each one's claim).
//
// Usage:
//
//	benchrunner                   # run all experiments
//	benchrunner -exp E6,E13       # run a subset
//	benchrunner -list             # list experiments and the claims they test
//	benchrunner -exp E8 -json BENCH_mapreduce.json  # machine-readable results
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"kbharvest/internal/eval"
	"kbharvest/internal/experiments"
)

// jsonResult is the machine-readable record of one experiment run, consumed
// by CI to archive benchmark numbers (e.g. the E8 worker-scaling tables).
type jsonResult struct {
	ID     string        `json:"id"`
	Claim  string        `json:"claim"`
	Millis float64       `json:"millis"`
	Tables []*eval.Table `json:"tables"`
}

func main() {
	expFlag := flag.String("exp", "", "comma-separated experiment IDs (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonPath := flag.String("json", "", "also write results as JSON to this path")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Claim)
		}
		return
	}

	selected := experiments.All()
	if *expFlag != "" {
		selected = selected[:0]
		for _, id := range strings.Split(*expFlag, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "benchrunner: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	var results []jsonResult
	for _, e := range selected {
		fmt.Printf("=== %s: %s\n", e.ID, e.Claim)
		t0 := time.Now()
		tabs := e.Run()
		took := time.Since(t0)
		for _, tab := range tabs {
			fmt.Println(tab.String())
		}
		fmt.Printf("(%s completed in %v)\n\n", e.ID, took.Round(time.Millisecond))
		results = append(results, jsonResult{
			ID: e.ID, Claim: e.Claim,
			Millis: float64(took.Microseconds()) / 1000,
			Tables: tabs,
		})
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: encode json: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("json results written to %s\n", *jsonPath)
	}
}
