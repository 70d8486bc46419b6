package ned

import (
	"strings"
	"testing"

	"kbharvest/internal/eval"
	"kbharvest/internal/synth"
)

func TestDictionaryPriors(t *testing.T) {
	b := NewBuilder()
	b.Observe("Jobs", "kb:Steve_Jobs", 8)
	b.Observe("Jobs", "kb:Laurene_Jobs", 2)
	d := b.Build()
	cands := d.Candidates("jobs") // case-insensitive
	if len(cands) != 2 {
		t.Fatalf("candidates = %+v", cands)
	}
	if cands[0].Entity != "kb:Steve_Jobs" || cands[0].Prior != 0.8 {
		t.Errorf("top candidate = %+v", cands[0])
	}
	if cands[1].Prior != 0.2 {
		t.Errorf("second prior = %v", cands[1].Prior)
	}
}

func TestDictionaryObserveAccumulates(t *testing.T) {
	b := NewBuilder()
	b.Observe("X", "e1", 1)
	b.Observe("X", "e1", 1)
	b.Observe("X", "e2", 2)
	d := b.Build()
	cands := d.Candidates("X")
	if len(cands) != 2 || cands[0].Prior != 0.5 {
		t.Errorf("candidates = %+v", cands)
	}
}

func TestDictionaryAmbiguity(t *testing.T) {
	b := NewBuilder()
	b.Observe("unique", "e1", 1)
	b.Observe("shared", "e1", 1)
	b.Observe("shared", "e2", 1)
	d := b.Build()
	if n := len(d.Candidates("unique")); n != 1 {
		t.Errorf("unique surface has %d candidates, want 1", n)
	}
	if n := len(d.Candidates("shared")); n != 2 {
		t.Errorf("shared surface has %d candidates, want 2", n)
	}
}

func TestDetectMentions(t *testing.T) {
	b := NewBuilder()
	b.Observe("Steve Jobs", "kb:Steve_Jobs", 1)
	b.Observe("Apple", "kb:Apple", 1)
	d := b.Build()
	text := "Steve Jobs presented the new Apple product."
	ms := d.DetectMentions(text, 3)
	if len(ms) != 2 {
		t.Fatalf("mentions = %+v", ms)
	}
	if text[ms[0].Start:ms[0].End] != "Steve Jobs" {
		t.Errorf("first mention = %q", text[ms[0].Start:ms[0].End])
	}
	// Longest match wins: "Steve Jobs" not "Jobs".
	b.Observe("Jobs", "kb:Steve_Jobs", 1)
	d = b.Build()
	ms = d.DetectMentions(text, 3)
	if len(ms) != 2 || text[ms[0].Start:ms[0].End] != "Steve Jobs" {
		t.Errorf("longest match failed: %+v", ms)
	}
}

func TestContextModelSimilarity(t *testing.T) {
	m := NewContextModel()
	m.AddDocument("kb:physicist", "quantum theory relativity physics research laboratory")
	m.AddDocument("kb:musician", "album concert guitar stage tour music")
	m.Finalize()
	physCtx := ContextVector("the physics laboratory published quantum research")
	if m.Similarity("kb:physicist", physCtx) <= m.Similarity("kb:musician", physCtx) {
		t.Error("context similarity failed to separate profiles")
	}
	if m.Similarity("kb:unknown", physCtx) != 0 {
		t.Error("unknown entity should score 0")
	}
}

func TestRelatednessScore(t *testing.T) {
	r := NewRelatedness()
	// a and b share inlinks; c is isolated.
	r.AddLinks("p1", []string{"a", "b"})
	r.AddLinks("p2", []string{"a", "b"})
	r.AddLinks("p3", []string{"a", "c"})
	r.AddLinks("p4", []string{"d"})
	ab := r.Score("a", "b")
	ac := r.Score("a", "c")
	if ab <= ac {
		t.Errorf("relatedness: ab=%v should exceed ac=%v", ab, ac)
	}
	if got := r.Score("a", "zzz"); got != 0 {
		t.Errorf("unknown entity relatedness = %v", got)
	}
	if ab < 0 || ab > 1 {
		t.Errorf("relatedness out of range: %v", ab)
	}
}

func TestModeString(t *testing.T) {
	if PriorOnly.String() != "prior" || Joint.String() != "prior+context+coherence" {
		t.Error("mode strings wrong")
	}
}

func nedWorld(seed int64) (*synth.World, *synth.Corpus) {
	w := synth.Generate(synth.Config{
		People: 120, Companies: 30, Cities: 12, Countries: 4,
		Universities: 8, Products: 24, Prizes: 6,
	}, seed)
	return w, synth.BuildCorpus(w, synth.DefaultCorpusOptions())
}

// evalMode disambiguates every ambiguous alias mention in the corpus and
// scores accuracy against the gold referent.
func evalMode(t *testing.T, w *synth.World, corpus *synth.Corpus, linker *Linker, mode Mode) (float64, int) {
	t.Helper()
	correct, total := 0, 0
	for _, a := range corpus.Articles {
		var mentions []Mention
		var gold []string
		for _, m := range a.Mentions {
			cands := linker.Dict.Candidates(m.Surface)
			if len(cands) < 2 {
				continue // unambiguous; every mode gets it right
			}
			mentions = append(mentions, Mention{
				Surface: m.Surface,
				Context: contextWindow(a.Text, m.Start, m.End, 200),
			})
			gold = append(gold, m.Entity)
		}
		if len(mentions) == 0 {
			continue
		}
		results := linker.Disambiguate(mentions, mode)
		for i, r := range results {
			total++
			if r.Entity == gold[i] {
				correct++
			}
		}
	}
	if total == 0 {
		t.Fatal("no ambiguous mentions to evaluate")
	}
	return eval.Accuracy(correct, total), total
}

func contextWindow(text string, start, end, radius int) string {
	lo := start - radius
	if lo < 0 {
		lo = 0
	}
	hi := end + radius
	if hi > len(text) {
		hi = len(text)
	}
	return text[lo:hi]
}

// The tutorial's central NED claim (E13): context beats prior, and
// coherence beats context.
func TestContextBeatsPrior(t *testing.T) {
	w, corpus := nedWorld(71)
	linker := FromCorpus(w, corpus)
	accPrior, n := evalMode(t, w, corpus, linker, PriorOnly)
	accCtx, _ := evalMode(t, w, corpus, linker, PriorContext)
	t.Logf("prior=%.3f context=%.3f over %d ambiguous mentions", accPrior, accCtx, n)
	if accCtx <= accPrior {
		t.Errorf("context (%.3f) should beat prior (%.3f)", accCtx, accPrior)
	}
}

func TestJointAtLeastMatchesContext(t *testing.T) {
	w, corpus := nedWorld(72)
	linker := FromCorpus(w, corpus)
	accCtx, _ := evalMode(t, w, corpus, linker, PriorContext)
	accJoint, n := evalMode(t, w, corpus, linker, Joint)
	t.Logf("context=%.3f joint=%.3f over %d ambiguous mentions", accCtx, accJoint, n)
	if accJoint < accCtx-0.02 {
		t.Errorf("joint (%.3f) fell below context (%.3f)", accJoint, accCtx)
	}
	if accJoint < 0.5 {
		t.Errorf("joint accuracy too low: %.3f", accJoint)
	}
}

func TestDisambiguateNoCandidates(t *testing.T) {
	linker := NewLinker(NewDictionary(), NewContextModel(), NewRelatedness())
	results := linker.Disambiguate([]Mention{{Surface: "Unknown Name"}}, Joint)
	if len(results) != 1 || !results[0].NoCandidate {
		t.Errorf("results = %+v", results)
	}
}

func TestTopCandidates(t *testing.T) {
	b := NewBuilder()
	b.Observe("X", "e1", 3)
	b.Observe("X", "e2", 1)
	linker := NewLinker(b.Build(), NewContextModel(), NewRelatedness())
	top := linker.TopCandidates(Mention{Surface: "X"}, 1)
	if len(top) != 1 || top[0].Entity != "e1" {
		t.Errorf("top = %+v", top)
	}
	if got := linker.TopCandidates(Mention{Surface: "none"}, 3); got != nil {
		t.Errorf("unknown surface should yield nil, got %v", got)
	}
}

func TestRelatednessEmptyModel(t *testing.T) {
	r := NewRelatedness()
	if got := r.Score("a", "b"); got != 0 {
		t.Errorf("empty model relatedness = %v", got)
	}
}

func TestDisambiguateSingleMentionJointFallsBack(t *testing.T) {
	// Joint mode with one mention has no coherence partners; it must
	// behave like prior+context, not fail.
	b := NewBuilder()
	b.Observe("X", "e1", 3)
	b.Observe("X", "e2", 1)
	linker := NewLinker(b.Build(), NewContextModel(), NewRelatedness())
	res := linker.Disambiguate([]Mention{{Surface: "X"}}, Joint)
	if len(res) != 1 || res[0].Entity != "e1" {
		t.Errorf("single-mention joint = %+v", res)
	}
}

func TestDetectMentionsDefaultsMaxWords(t *testing.T) {
	b := NewBuilder()
	b.Observe("Alpha Beta Gamma", "e1", 1)
	d := b.Build()
	ms := d.DetectMentions("the Alpha Beta Gamma device", 0) // 0 -> default 3
	if len(ms) != 1 {
		t.Errorf("default maxWords failed: %+v", ms)
	}
}

func TestNormSurface(t *testing.T) {
	if normSurface("  Steve   JOBS ") != "steve jobs" {
		t.Error("normalization wrong")
	}
}

func TestMentionSurfaceRoundTrip(t *testing.T) {
	// DetectMentions output must slice back to the surface.
	b := NewBuilder()
	b.Observe("Nova 3", "kb:Nova_3", 1)
	d := b.Build()
	text := "I love my Nova 3 phone."
	ms := d.DetectMentions(text, 3)
	if len(ms) != 1 {
		t.Fatalf("mentions = %+v", ms)
	}
	if !strings.EqualFold(text[ms[0].Start:ms[0].End], "Nova 3") {
		t.Errorf("span = %q", text[ms[0].Start:ms[0].End])
	}
}
