// Kbbench is the repository's benchmark. Untraced (-trace 0) it drives
// the built kbbuild, kbserve and kbrouter binaries over loopback and
// reports what a caller and an operator see; traced (-trace 1) it
// replays the same generated requests in-process through each layer's
// public functions, looks at the processes from outside, and writes a
// span file. See ../README.md for the workloads and what each metric
// should move.
//
//	kbbench -workload serve_hot -seed 1 -seconds 10 -trace 0
//	kbbench -workload serve_hot -seed 1 -trace 1 [-trace-out spans.jsonl]
//	kbbench -workload build -aa 5 [-aa-step 1]
//	kbbench -baseline BASELINE.json
//
// The last line of standard output is the result as one JSON object.
// Any failed operation makes the exit code non-zero.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

type options struct {
	seed     int64
	window   time.Duration
	traced   bool
	traceOut string
}

func run() int {
	name := flag.String("workload", "", "workload to run: serve_hot, serve_cold, router_mix or build")
	seed := flag.Int64("seed", 1, "seed of the synthetic world, the query space and every client's draws")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from the binaries; 1: per-layer metrics from the ladder, with a span file")
	traceOut := flag.String("trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>-<seed>.jsonl)")
	aa := flag.Int("aa", 0, "run the workload this many times and print each metric's median, quartiles and spread")
	aaStep := flag.Int64("aa-step", 0, "with -aa: add this to the seed after every run (0 repeats one seed)")
	baseline := flag.String("baseline", "", "run every workload untraced and traced and write all metrics to this file")
	bin := flag.String("bin", "", "directory holding kbbuild, kbserve and kbrouter (default: .bench_build/bin, where bench/run.sh builds them)")
	keep := flag.Bool("keep", false, "keep the scratch directory (snapshots, child logs)")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}

	// kbbench shares two cores with the servers it loads. Decoding and
	// checking every reply makes garbage at a steady rate; collecting it
	// a quarter as often keeps the collector's marking out of the
	// measurements.
	debug.SetGCPercent(400)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e, err := newEnv(*bin, *keep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kbbench:", err)
		return 1
	}
	defer e.close()
	opt := options{seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *trace == 1, traceOut: *traceOut}

	if *baseline != "" {
		err = writeBaseline(ctx, e, opt, *baseline)
	} else {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "kbbench: unknown workload %q\n", *name)
			return 2
		}
		if *aa > 0 {
			err = runAA(ctx, e, w, opt, *aa, *aaStep)
		} else {
			var r *report
			if r, err = runOnce(ctx, e, w, opt); err == nil {
				err = emit(r, opt.traced)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kbbench:", err)
		return 1
	}
	return 0
}

// runOnce is one run of one workload in one mode. A run in which an
// operation failed still returns its report; a run that could not
// finish returns an error.
func runOnce(ctx context.Context, e *env, w workloadDef, opt options) (*report, error) {
	var r *report
	var err error
	if opt.traced {
		out := opt.traceOut
		if out == "" {
			out = filepath.Join(e.root, ".bench_build", fmt.Sprintf("trace-%s-%d.jsonl", w.name, opt.seed))
		}
		r, err = runLadder(ctx, e, e.work, w, opt.seed, ladderRequests, out)
	} else {
		r, err = runEndToEnd(ctx, e, w, opt.seed, opt.window)
	}
	if err != nil {
		for _, o := range r.tally.offenders {
			fmt.Fprintln(os.Stderr, "kbbench: failed:", o)
		}
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return r, nil
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// emit prints the notes, every metric with its unit, and the result
// line. It refuses a report whose metrics are not exactly the declared
// ones, and returns an error when an operation failed.
func emit(r *report, traced bool) error {
	defs := defsFor(traced)
	if len(r.metrics) != len(defs) {
		return fmt.Errorf("internal: %d metrics measured, %d declared", len(r.metrics), len(defs))
	}
	out := result{r.tally.failed == 0, r.tally.attempted, r.tally.failed, map[string]value{}}
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return fmt.Errorf("internal: metric %s was not measured", d.name)
		}
		fmt.Printf("%-32s %16.4f %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = value{v, d.unit}
	}
	fmt.Printf("# operations: %d attempted, %d failed\n", r.tally.attempted, r.tally.failed)
	for _, o := range r.tally.offenders {
		fmt.Println("# failed:", o)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if r.tally.failed > 0 {
		return fmt.Errorf("%d of %d operations failed", r.tally.failed, r.tally.attempted)
	}
	return nil
}

// selfRun runs one workload in a fresh kbbench process, the way the
// driver does, and parses its result line: nothing a run leaves on the
// heap can reach the next one, and a child's reported peak RSS is never
// less than its parent's size when it was started.
func selfRun(ctx context.Context, e *env, w workloadDef, opt options) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if opt.traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-bin", e.bin, "-workload", w.name,
		"-seed", strconv.FormatInt(opt.seed, 10), "-seconds", strconv.Itoa(int(opt.window.Seconds())), "-trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", w.name, opt.seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: no result line: %w", w.name, opt.seed, err)
	}
	return &res, nil
}

// quartiles are Python's statistics.quantiles(xs, n=4): the exclusive
// method, which is what the benchmark's acceptance check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	sort.Float64s(xs)
	at := func(k int) float64 {
		n := len(xs)
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			return xs[0]
		}
		if j >= n {
			return xs[n-1]
		}
		return xs[j-1] + (pos-float64(j))*(xs[j]-xs[j-1])
	}
	return at(1), at(2), at(3)
}

// runAA repeats one workload and prints how far each metric moves
// between runs: the interquartile range and the full range, both as a
// share of the median, next to the bound it has to stay inside.
func runAA(ctx context.Context, e *env, w workloadDef, opt options, runs int, step int64) error {
	defs := defsFor(opt.traced)
	values := map[string][]float64{}
	for i := 0; i < runs; i++ {
		res, err := selfRun(ctx, e, w, opt)
		if err != nil {
			return err
		}
		for _, d := range defs {
			values[d.name] = append(values[d.name], res.Metrics[d.name].Value)
		}
		fmt.Fprintf(os.Stderr, "kbbench: %s run %d/%d seed %d done\n", w.name, i+1, runs, opt.seed)
		opt.seed += step
	}
	fmt.Printf("# %s, %d runs, seed step %d, window %v\n", w.name, runs, step, opt.window)
	fmt.Printf("%-32s %14s %14s %14s %8s %8s %6s\n", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound")
	medians := map[string]float64{}
	for _, d := range defs {
		xs := append([]float64(nil), values[d.name]...) // quartiles sorts; values keeps the run order
		q1, q2, q3 := quartiles(xs)
		medians[d.name] = q2
		iqr, rng := 0.0, 0.0
		if q2 != 0 {
			iqr, rng = (q3-q1)/q2, (xs[len(xs)-1]-xs[0])/q2
		}
		fmt.Printf("%-32s %14.4f %14.4f %14.4f %8.4f %8.4f %6.2f\n", d.name, q2, q1, q3, iqr, rng, d.bound)
	}
	fmt.Println("# in run order, as a share of the median:")
	for _, d := range defs {
		fmt.Printf("%-32s", d.name)
		for _, v := range values[d.name] {
			if medians[d.name] != 0 {
				v /= medians[d.name]
			}
			fmt.Printf(" %6.3f", v)
		}
		fmt.Println()
	}
	return nil
}

// writeBaseline records the full metric set of this commit: every
// workload, untraced and traced, with what the numbers depend on.
func writeBaseline(ctx context.Context, e *env, opt options, path string) error {
	type row struct {
		EndToEnd map[string]float64 `json:"end_to_end"`
		PerLayer map[string]float64 `json:"per_layer"`
	}
	out := struct {
		Seed           int64          `json:"seed"`
		WindowSeconds  float64        `json:"window_seconds"`
		Clients        int            `json:"clients"`
		LadderRequests int            `json:"ladder_requests"`
		NProc          int            `json:"nproc"`
		Go             string         `json:"go"`
		Workloads      map[string]row `json:"workloads"`
	}{opt.seed, opt.window.Seconds(), clients, ladderRequests, runtime.NumCPU(), runtime.Version(), map[string]row{}}
	for _, w := range workloads {
		rw := row{map[string]float64{}, map[string]float64{}}
		for _, traced := range []bool{false, true} {
			opt.traced = traced
			res, err := selfRun(ctx, e, w, opt)
			if err != nil {
				return err
			}
			for name, v := range res.Metrics {
				if traced {
					rw.PerLayer[name] = v.Value
				} else {
					rw.EndToEnd[name] = v.Value
				}
			}
			fmt.Fprintf(os.Stderr, "kbbench: %s trace=%v done\n", w.name, traced)
		}
		out.Workloads[w.name] = rw
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
