package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"

	"kbharvest/internal/core"
)

// Set-up repeats inside a run so that what it reports are medians:
// buildRuns builds of the snapshot, coldStarts starts of the tier timed
// from exec to ready, the last warmStarts of them with the warm-up.
const (
	buildRuns  = 3
	coldStarts = 7
	warmStarts = 3
)

// built is what one kbbuild run produced and cost.
type built struct {
	wall      time.Duration
	rssMB     float64
	articles  int
	facts     int
	f1        float64
	snapshots []string
	bytes     int64
}

var (
	reArticles = regexp.MustCompile(`(?m)^corpus: (\d+) articles`)
	reFacts    = regexp.MustCompile(`(?m)^kb: (\d+) facts`)
	reQuality  = regexp.MustCompile(`\(tp=(\d+) fp=(\d+) fn=(\d+)\)`)
)

func atoi(s string) int {
	n, _ := strconv.Atoi(s) // s matched \d+
	return n
}

// kbbuild runs the workload's build and parses what it printed.
func (e *env) kbbuild(ctx context.Context, w workloadDef, seed int64) (*built, error) {
	out := filepath.Join(e.work, "kb.nt")
	args := []string{"-scale", strconv.FormatFloat(w.scale, 'g', -1, 64), "-seed", strconv.FormatInt(seed, 10), "-out", out}
	if !w.reason {
		args = append(args, "-no-reason")
	}
	if w.check {
		args = append(args, "-check")
	}
	b := &built{snapshots: []string{out}}
	if w.shards > 1 {
		args = append(args, "-shards", strconv.Itoa(w.shards))
		b.snapshots = nil
		for i := 0; i < w.shards; i++ {
			b.snapshots = append(b.snapshots, filepath.Join(e.work, fmt.Sprintf("kb.%d.nt", i)))
		}
	}
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, "kbbuild"), args...)
	t0 := time.Now()
	text, err := cmd.CombinedOutput()
	b.wall = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("kbbuild %v: %v\n%s", args, err, text)
	}
	b.rssMB = float64(cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss) / 1024
	articles, facts, quality := reArticles.FindSubmatch(text), reFacts.FindSubmatch(text), reQuality.FindSubmatch(text)
	if articles == nil || facts == nil || quality == nil {
		return nil, fmt.Errorf("kbbuild printed no corpus/kb/quality line:\n%s", text)
	}
	b.articles, b.facts = atoi(string(articles[1])), atoi(string(facts[1]))
	tp, fp, fn := atoi(string(quality[1])), atoi(string(quality[2])), atoi(string(quality[3]))
	b.f1 = 2 * float64(tp) / float64(2*tp+fp+fn)
	for _, s := range b.snapshots {
		fi, err := os.Stat(s)
		if err != nil {
			return nil, err
		}
		b.bytes += fi.Size()
	}
	return b, nil
}

// loadSnapshots reads the snapshot files into one merged store, the
// way a single kbserve over the unpartitioned KB would hold them.
func loadSnapshots(paths []string) (*core.Store, error) {
	st := core.NewStore()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		_, err = st.Load(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", p, err)
		}
	}
	return st, nil
}

// statsClient reads the servers' /statsz pages.
var statsClient = &http.Client{Timeout: 5 * time.Second}

// getJSON fetches a /statsz page.
func getJSON(url string, v interface{}) error {
	resp, err := statsClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// report is what one run hands to emit.
type report struct {
	metrics map[string]float64
	notes   []string // printed above the metrics, not part of the result
	tally   tally
}

func (r *report) notef(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// cycleRate is the window's throughput. A client's stream repeats the
// same mix every requestCycle requests (each analytic join once, 57
// entity queries), so every whole cycle is the same amount of work; the
// rate is the cycle's requests over the median cycle time, summed over
// the clients. Unlike a count over the window it does not depend on
// which join the window's end cuts off, and a burst of interference
// that slows a minority of the cycles does not move it. A cycle is timed
// from the end of the one before it, so the first only marks a start; a
// cycle with a failed request does not count.
func cycleRate(perClient [][]sample) (qps float64, cycles int) {
	for _, ss := range perClient {
		var durs []float64
		for k := 1; (k+1)*requestCycle <= len(ss); k++ {
			ok := true
			for _, s := range ss[k*requestCycle : (k+1)*requestCycle] {
				ok = ok && s.err == nil
			}
			if ok {
				durs = append(durs, ss[(k+1)*requestCycle-1].done.Sub(ss[k*requestCycle-1].done).Seconds())
			}
		}
		if len(durs) > 0 {
			qps += requestCycle / median(durs)
			cycles += len(durs)
		}
	}
	return qps, cycles
}

// runEndToEnd drives the built binaries: build the snapshot, start the
// tier cold, warm it up, then load it for the window. Every workload
// goes through the same phases; they differ in the snapshot, the
// topology and the traffic.
func runEndToEnd(ctx context.Context, e *env, w workloadDef, seed int64, window time.Duration) (*report, error) {
	r := &report{metrics: map[string]float64{}}

	var walls, rss []float64
	var b *built
	for i := 0; i < buildRuns; i++ {
		var err error
		b, err = e.kbbuild(ctx, w, seed)
		r.tally.add(err)
		if err != nil {
			return r, err
		}
		walls = append(walls, b.wall.Seconds())
		rss = append(rss, b.rssMB)
	}
	buildWall := median(walls)

	st, err := loadSnapshots(b.snapshots)
	if err != nil {
		return r, err
	}
	sp, err := newSpace(st, seed)
	if err != nil {
		return r, err
	}
	orc, err := newOracle(ctx, st, sp)
	if err != nil {
		return r, err
	}
	r.notef("space: %d distinct queries (%d routable), draw list %d, %d facts",
		len(sp.mixed), len(sp.routable), len(sp.drawList(w)), st.Len())

	// Cold starts: exec to ready; the last warmStarts of them go on to
	// the warm-up, and only the very last tier stays up for the window.
	var readies, ups []float64
	var t *tier
	warm := sp.warmupIDs(w, seed)
	for i := 0; i < coldStarts; i++ {
		if t != nil {
			e.stop(t.procs()...)
		}
		t0 := time.Now()
		if t, err = e.startTier(ctx, b.snapshots); err != nil {
			r.tally.add(err)
			return r, err
		}
		r.tally.add(nil)
		readies = append(readies, t.ready.Seconds())
		if i >= coldStarts-warmStarts {
			r.tally.addSamples(driveLists(ctx, t.front, orc, warm))
			ups = append(ups, time.Since(t0).Seconds())
		}
	}
	defer e.stop(t.procs()...)
	if err := ctx.Err(); err != nil {
		return r, err
	}

	seqs := make([]*sequence, clients)
	for c := range seqs {
		seqs[c] = sp.newSequence(w, seed, c, 0)
	}
	cpu0, err := sumCPU(t.procs())
	if err != nil {
		return r, err
	}
	var stats0, stats1 serveStatsz
	if err := getJSON(t.shards[0].url+"/statsz", &stats0); err != nil {
		return r, err
	}
	t0 := time.Now()
	perClient := driveFor(ctx, t.front, orc, seqs, window)
	elapsed := time.Since(t0)
	cpu1, err := sumCPU(t.procs())
	if err != nil {
		return r, err
	}
	if err := getJSON(t.shards[0].url+"/statsz", &stats1); err != nil {
		return r, err
	}
	if err := ctx.Err(); err != nil {
		return r, err
	}
	samples := flatten(perClient)
	r.tally.addSamples(samples)

	var lats []float64
	for _, s := range samples {
		if s.err == nil {
			lats = append(lats, micros(s.lat))
		}
	}
	qps, cycles := cycleRate(perClient)
	if len(lats) == 0 || cycles == 0 {
		return r, fmt.Errorf("the window is too short: %d correct answers, %d whole request cycles", len(lats), cycles)
	}
	peak := 0.0
	for _, p := range t.procs() {
		mb, err := p.peakRSS()
		if err != nil {
			return r, err
		}
		peak += mb
	}
	m := r.metrics
	m["setup_s"] = buildWall + median(ups)
	m["qps"] = qps
	m["lat_p50_us"] = quantile(lats, 0.50)
	m["lat_p99_us"] = quantile(lats, 0.99)
	m["server_cpu_ms_per_query"] = millis(cpu1-cpu0) / float64(len(lats))
	m["server_rss_mb"] = peak
	m["build_docs_per_s"] = float64(b.articles) / buildWall
	m["build_rss_mb"] = median(rss)
	m["load_facts_per_s"] = float64(b.facts) / median(readies)
	m["snapshot_bytes_per_fact"] = float64(b.bytes) / float64(b.facts)
	m["fact_f1"] = b.f1
	r.notef("window: %d answered in %.2fs by %d clients (%.1f/s), %d whole cycles; lat_p99_us has %d samples beyond it",
		len(lats), elapsed.Seconds(), clients, float64(len(lats))/elapsed.Seconds(), cycles, len(lats)/100)
	r.notef("setup: kbbuild %.3fs (median of %d), start+warm-up %.3fs (median of %d), exec-to-ready %.3fs",
		buildWall, buildRuns, median(ups), warmStarts, median(readies))
	r.notef("kbserve[0] cache over the window: hit ratio %.4f", stats1.hitRatioSince(stats0))
	return r, nil
}
