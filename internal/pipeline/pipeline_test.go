package pipeline

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"kbharvest/internal/core"
	"kbharvest/internal/eval"
	"kbharvest/internal/extract"
	"kbharvest/internal/extract/patterns"
	"kbharvest/internal/ned"
	"kbharvest/internal/rdf"
	"kbharvest/internal/reason"
	"kbharvest/internal/synth"
	"kbharvest/internal/temporal"
)

func smallOptions(seed int64) Options {
	return Options{
		World: synth.Config{
			People: 60, Companies: 15, Cities: 10, Countries: 3,
			Universities: 6, Products: 12, Prizes: 4,
		},
		Seed:      seed,
		Corpus:    synth.DefaultCorpusOptions(),
		Workers:   2,
		Reason:    true,
		Infoboxes: true,
		Temporal:  true,
	}
}

func TestRunEndToEnd(t *testing.T) {
	res, err := Run(context.Background(), smallOptions(91))
	if err != nil {
		t.Fatal(err)
	}
	if res.KB.Len() == 0 {
		t.Fatal("empty KB")
	}
	if res.Candidates == 0 || res.Accepted == 0 {
		t.Fatalf("candidates=%d accepted=%d", res.Candidates, res.Accepted)
	}
	if res.Accepted > res.Candidates {
		t.Error("reasoning cannot accept more than extracted")
	}
	// Every stage timed, in order; the NED models are not a stage.
	var stages []string
	for _, s := range res.Timings {
		stages = append(stages, s.Stage)
	}
	want := []string{"generate", "taxonomy", "extract", "reason", "assert", "labels"}
	if !reflect.DeepEqual(stages, want) {
		t.Errorf("stage timings %v, want %v", stages, want)
	}
}

func TestExtractionQuality(t *testing.T) {
	res, err := Run(context.Background(), smallOptions(92))
	if err != nil {
		t.Fatal(err)
	}
	tp, fp, fn := EvaluateFacts(res)
	score := eval.Score(tp, fp, fn)
	t.Logf("pipeline fact quality: %v", score)
	if score.Precision < 0.85 {
		t.Errorf("pipeline precision = %v", score)
	}
	if score.Recall < 0.45 {
		t.Errorf("pipeline recall = %v", score)
	}
}

func TestReasoningImprovesPrecision(t *testing.T) {
	noReason := smallOptions(93)
	noReason.Reason = false
	withReason := smallOptions(93)

	resNo, err := Run(context.Background(), noReason)
	if err != nil {
		t.Fatal(err)
	}
	resYes, err := Run(context.Background(), withReason)
	if err != nil {
		t.Fatal(err)
	}
	tpN, fpN, _ := EvaluateFacts(resNo)
	tpY, fpY, _ := EvaluateFacts(resYes)
	precNo := eval.Accuracy(tpN, tpN+fpN)
	precYes := eval.Accuracy(tpY, tpY+fpY)
	t.Logf("precision without reasoning %.3f, with %.3f", precNo, precYes)
	if precYes < precNo {
		t.Errorf("reasoning lowered precision: %.3f -> %.3f", precNo, precYes)
	}
}

func TestTaxonomyInKB(t *testing.T) {
	res, err := Run(context.Background(), smallOptions(94))
	if err != nil {
		t.Fatal(err)
	}
	// Harvested types must cover most entities.
	typed := 0
	for _, e := range res.World.Entities {
		if len(res.KB.DirectTypes(e.ID)) > 0 {
			typed++
		}
	}
	if frac := float64(typed) / float64(len(res.World.Entities)); frac < 0.95 {
		t.Errorf("only %.2f of entities typed", frac)
	}
	// Subclass edges present.
	if len(res.KB.Subclasses(classIRI("person"))) == 0 {
		t.Error("no induced person subclasses")
	}
}

func TestTemporalScopesInKB(t *testing.T) {
	res, err := Run(context.Background(), smallOptions(95))
	if err != nil {
		t.Fatal(err)
	}
	scoped := 0
	for _, rel := range relationIRIs() {
		res.KB.MatchFunc(patternFor(rel), func(id core.FactID, _ rdf.Triple) bool {
			info, _ := res.KB.Info(id)
			if info.Time.Begin != -1<<31 && info.Time.End != 1<<31-1 {
				scoped++
			}
			return true
		})
	}
	if scoped == 0 {
		t.Error("no facts carry bounded temporal scopes")
	}
}

func TestMapReduceWorkerEquivalence(t *testing.T) {
	w := synth.Generate(synth.Config{
		People: 40, Companies: 10, Cities: 8, Countries: 3,
		Universities: 4, Products: 8, Prizes: 3,
	}, 96)
	corpus := synth.BuildCorpus(w, synth.DefaultCorpusOptions())
	docs := Docs(corpus)
	base, err := extractMapReduce(context.Background(), docs, patterns.DefaultPatterns(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := extractMapReduce(context.Background(), docs, patterns.DefaultPatterns(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(keysOf(base), keysOf(got)) {
			t.Errorf("workers=%d extraction differs from workers=1", workers)
		}
	}
}

func TestLinkerFromPipeline(t *testing.T) {
	res, err := Run(context.Background(), smallOptions(97))
	if err != nil {
		t.Fatal(err)
	}
	linker := res.Linker()
	if linker == nil || linker.Dict == nil {
		t.Fatal("linker not wired")
	}
	// It should disambiguate a canonical name to the right entity.
	p := res.World.People[0]
	results := linker.Disambiguate([]ned.Mention{{Surface: p.Name, Context: ""}}, ned.PriorOnly)
	if len(results) != 1 || results[0].Entity != p.ID {
		t.Errorf("linker result = %+v, want %s", results, p.ID)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := Run(context.Background(), smallOptions(98))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), smallOptions(98))
	if err != nil {
		t.Fatal(err)
	}
	if a.Candidates != b.Candidates || a.Accepted != b.Accepted || a.KB.Len() != b.KB.Len() {
		t.Errorf("same-seed runs differ: %d/%d/%d vs %d/%d/%d",
			a.Candidates, a.Accepted, a.KB.Len(), b.Candidates, b.Accepted, b.KB.Len())
	}
}

// Two runs at one seed save the same snapshot byte for byte: one at the
// test's GOMAXPROCS with four extraction workers, one at GOMAXPROCS 1 with
// one worker (CI runs the test at -cpu 1,2,4). FactID order, metadata and
// the CRC trailer are all fixed by the seed, and a limited query's answer
// depends on FactID order. The snapshot's digest is pinned too, so a
// change that moves any byte of it shows here; a change of method that
// moves it on purpose updates seed7SnapshotSHA256 and says so.
func TestRunSavesReproducibleSnapshots(t *testing.T) {
	const seed7SnapshotSHA256 = "bf736256fc7029cf8202cc19d5f14d0acbf153800e10823087f8f27174d19e6b"
	var snaps [2]bytes.Buffer
	for i, cfg := range []struct{ procs, workers int }{{runtime.GOMAXPROCS(0), 4}, {1, 1}} {
		opt := DefaultOptions()
		opt.Seed, opt.Workers = 7, cfg.workers
		prev := runtime.GOMAXPROCS(cfg.procs)
		res, err := Run(context.Background(), opt)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.KB.Save(&snaps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(snaps[0].Bytes(), snaps[1].Bytes()) {
		a, b := strings.Split(snaps[0].String(), "\n"), strings.Split(snaps[1].String(), "\n")
		for i := range a {
			if i >= len(b) || a[i] != b[i] {
				t.Fatalf("same-seed snapshots differ (%d vs %d bytes) first at line %d:\n%s\n%s",
					snaps[0].Len(), snaps[1].Len(), i+1, a[i], b[min(i, len(b)-1)])
			}
		}
		t.Fatalf("same-seed snapshots differ: %d vs %d bytes", snaps[0].Len(), snaps[1].Len())
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(snaps[0].Bytes())); got != seed7SnapshotSHA256 {
		t.Errorf("seed-7 snapshot (%d bytes) has sha256 %s, want %s", snaps[0].Len(), got, seed7SnapshotSHA256)
	}
}

func TestDocsAdapter(t *testing.T) {
	w := synth.Generate(synth.Config{
		People: 10, Companies: 4, Cities: 4, Countries: 2,
		Universities: 2, Products: 3, Prizes: 2,
	}, 99)
	corpus := synth.BuildCorpus(w, synth.DefaultCorpusOptions())
	docs := Docs(corpus)
	if len(docs) != len(corpus.Articles) {
		t.Fatalf("docs = %d, want %d", len(docs), len(corpus.Articles))
	}
	for i, d := range docs {
		a := corpus.Articles[i]
		if d.Text != a.Text || d.Source != a.ID {
			t.Fatalf("doc %d mismatch", i)
		}
		if len(d.Mentions) != len(a.Mentions) {
			t.Fatalf("doc %d mention count mismatch", i)
		}
		for j, m := range d.Mentions {
			if d.Text[m.Start:m.End] != a.Mentions[j].Surface {
				t.Fatalf("doc %d mention %d offsets wrong", i, j)
			}
		}
	}
}

func TestRunDefaultsZeroValueWorld(t *testing.T) {
	// A zero-valued World config falls back to the default world rather
	// than producing an empty pipeline.
	opt := Options{Seed: 100, Workers: 4, Infoboxes: true}
	res, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.World.Entities) == 0 || res.KB.Len() == 0 {
		t.Error("zero-value options should build the default world")
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := Run(ctx, smallOptions(101))
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Run with cancelled ctx = (%v, %v), want context.Canceled", res, err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("cancelled Run took %v, want prompt return", took)
	}
}

func TestRunCancelMidway(t *testing.T) {
	// Cancelling during the run must abort with a context error rather
	// than completing or hanging; the exact stage it dies in is timing
	// dependent.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, smallOptions(102))
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("mid-run cancel returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
}

func TestStageItemsCounted(t *testing.T) {
	res, err := Run(context.Background(), smallOptions(103))
	if err != nil {
		t.Fatal(err)
	}
	items := map[string]int{}
	for _, s := range res.Timings {
		items[s.Stage] = s.Items
	}
	if items["generate"] != len(res.Corpus.Articles) {
		t.Errorf("generate items = %d, want %d articles", items["generate"], len(res.Corpus.Articles))
	}
	if items["extract"] != res.Candidates {
		t.Errorf("extract items = %d, want %d candidates", items["extract"], res.Candidates)
	}
	if items["reason"] != res.Accepted || items["assert"] != res.Accepted {
		t.Errorf("reason/assert items = %d/%d, want %d accepted",
			items["reason"], items["assert"], res.Accepted)
	}
	for _, stage := range []string{"taxonomy", "labels"} {
		if items[stage] == 0 {
			t.Errorf("stage %s counted no items", stage)
		}
	}
}

func TestScopesMatchReextraction(t *testing.T) {
	// The scope candidates carried out of the extract stage must aggregate
	// to the same intervals the old per-sentence re-extraction produced.
	res, err := Run(context.Background(), smallOptions(104))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]core.Interval{}
	for _, doc := range Docs(res.Corpus) {
		for _, sent := range extract.SplitDoc(doc) {
			iv, ok := temporal.ScopeSentence(sent.Text)
			if !ok {
				continue
			}
			for _, c := range patterns.Apply([]extract.Sentence{sent}, patterns.DefaultPatterns()) {
				want[c.Key()] = append(want[c.Key()], iv)
			}
		}
	}
	for _, rel := range relationIRIs() {
		res.KB.MatchFunc(rdf.Triple{P: rdf.NewIRI(rel)}, func(id core.FactID, tr rdf.Triple) bool {
			info, _ := res.KB.Info(id)
			key := tr.S.Value + "\x00" + rel + "\x00" + tr.O.Value
			wantTime := core.Always
			if ivs := want[key]; len(ivs) > 0 {
				if iv, ok := temporal.AggregateScopes(ivs); ok {
					wantTime = iv
				}
			}
			if info.Time != wantTime {
				t.Errorf("fact %s scope = %v, want %v", key, info.Time, wantTime)
			}
			return true
		})
	}
}

func keysOf(cands []extract.Candidate) map[string]bool {
	out := make(map[string]bool, len(cands))
	for _, c := range cands {
		out[c.Key()] = true
	}
	return out
}

func patternFor(rel string) rdf.Triple {
	return rdf.Triple{P: rdf.NewIRI(rel)}
}

// WalkSAT starts from greedy repair's answer and adopts another only when
// strictly heavier. On the default world that never happens — every
// component of the instance is a mutex clique, where greedy is optimal —
// so the pipeline accepts exactly what SolveGreedy accepts.
func TestRunAcceptsWhatGreedyAccepts(t *testing.T) {
	ctx := context.Background()
	opt := DefaultOptions()
	opt.Workers = 2
	res, err := Run(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, rel := range relationIRIs() {
		res.KB.MatchFunc(patternFor(rel), func(_ core.FactID, tr rdf.Triple) bool {
			got[tr.S.Value+"\x00"+rel+"\x00"+tr.O.Value] = true
			return true
		})
	}

	// The same stages by hand, up to the candidates the reasoner sees.
	ref := &Result{KB: core.NewStore()}
	st := &runState{res: ref, opt: opt}
	for _, stage := range []func(context.Context) (int, error){st.generate, st.taxonomy, st.extract} {
		if _, err := stage(ctx); err != nil {
			t.Fatal(err)
		}
	}
	cp := reason.BuildConsistency(st.cands, consistencyRules(ref.KB))
	greedy := cp.SolveGreedy()
	if greedy.HardViolations != 0 {
		t.Fatalf("greedy left %d hard violations", greedy.HardViolations)
	}
	want := keysOf(cp.Accepted(greedy))
	if len(want) == len(st.cands) {
		t.Fatal("reasoning rejected nothing: the comparison is vacuous")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Run accepted %d facts, greedy %d, and the sets differ", len(got), len(want))
	}
	if res.Accepted != len(want) {
		t.Errorf("Result.Accepted = %d, want %d", res.Accepted, len(want))
	}
}
