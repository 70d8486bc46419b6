// Package synth generates the reproduction's data substrate: a
// deterministic ground-truth world (entities, classes, relations with
// temporal scope, multilingual names) plus the textual renderings the
// extraction pipeline consumes — a Wikipedia-style article corpus with
// categories, infoboxes, noisy sentences, ambiguous mentions and
// hyperlinks; web-style list pages; and a timestamped social-media stream.
//
// The real tutorial systems harvest Wikipedia and the Web; this generator
// replaces those sources while preserving the properties the algorithms
// depend on: Zipf-like mention ambiguity, incomplete
// infoboxes, noisy and paraphrased fact sentences, and interlinked
// articles. Because the generating world is known, every experiment can
// score extraction output against exact ground truth.
package synth

import (
	"fmt"
	"math/rand"
	"strings"
)

// nameGen builds pronounceable unique names from syllable inventories.
// Deterministic given the *rand.Rand it is handed.
type nameGen struct {
	rng  *rand.Rand
	used map[string]bool
}

func newNameGen(rng *rand.Rand) *nameGen {
	return &nameGen{rng: rng, used: make(map[string]bool)}
}

var (
	onsets  = []string{"b", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "br", "dr", "gr", "kr", "tr", "st", "sl", "th"}
	vowels  = []string{"a", "e", "i", "o", "u", "ai", "au", "ea", "ia", "io"}
	codas   = []string{"", "", "", "n", "r", "l", "s", "m", "x", "th", "nd", "rn"}
	endings = []string{"a", "o", "is", "us", "on", "en", "ar", "el", "ia"}
)

// syllable returns one random syllable.
func (g *nameGen) syllable() string {
	return onsets[g.rng.Intn(len(onsets))] + vowels[g.rng.Intn(len(vowels))] + codas[g.rng.Intn(len(codas))]
}

// word builds a capitalized word of n syllables.
func (g *nameGen) word(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(g.syllable())
	}
	if g.rng.Intn(2) == 0 {
		b.WriteString(endings[g.rng.Intn(len(endings))])
	}
	w := b.String()
	return strings.ToUpper(w[:1]) + w[1:]
}

// unique draws words until an unused one appears.
func (g *nameGen) unique(syllables int) string {
	for i := 0; ; i++ {
		w := g.word(syllables)
		if !g.used[w] {
			g.used[w] = true
			return w
		}
		if i > 1000 {
			// Inventory exhausted at this length; extend.
			syllables++
			i = 0
		}
	}
}

// pool draws n distinct words.
func (g *nameGen) pool(n, syllables int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = g.unique(syllables)
	}
	return out
}

var companySuffixes = []string{"Systems", "Labs", "Industries", "Technologies", "Corporation", "Works", "Dynamics", "Computing", "Networks", "Software"}

// companyName builds a company name, optionally derived from a founder's
// family name (a deliberate ambiguity source for NED).
func (g *nameGen) companyName(familyName string) string {
	base := familyName
	if base == "" {
		base = g.unique(2)
	}
	for i := 0; ; i++ {
		name := base + " " + companySuffixes[g.rng.Intn(len(companySuffixes))]
		if !g.used[name] {
			g.used[name] = true
			return name
		}
		if i > 50 {
			base = g.unique(2)
		}
	}
}

var productLines = []string{"Nova", "Pulse", "Orion", "Vertex", "Zephyr", "Atlas", "Comet", "Lumen", "Quasar", "Titan", "Ion", "Nimbus", "Vector", "Echo", "Strata"}

// productName builds a product name such as "Nova 3". Product lines are
// shared words, creating the "Galaxy"-style ambiguity §4 motivates.
func (g *nameGen) productName(line string, generation int) string {
	return fmt.Sprintf("%s %d", line, generation)
}

var universityPatterns = []string{"University of %s", "%s Institute of Technology", "%s State University", "%s College"}

func (g *nameGen) universityName(cityName string) string {
	for i := 0; ; i++ {
		p := universityPatterns[g.rng.Intn(len(universityPatterns))]
		name := fmt.Sprintf(p, cityName)
		if !g.used[name] {
			g.used[name] = true
			return name
		}
		if i > 10 {
			cityName = g.unique(2)
		}
	}
}

var prizePatterns = []string{"%s Prize", "%s Medal", "%s Award"}

func (g *nameGen) prizeName() string {
	for {
		name := fmt.Sprintf(prizePatterns[g.rng.Intn(len(prizePatterns))], g.unique(2))
		if !g.used[name] {
			g.used[name] = true
			return name
		}
	}
}

// translit renders a name in a pseudo-foreign orthography for a language,
// deterministic per (name, lang). The transformations are invertible-ish
// string edits, so cross-lingual matching by edit distance is learnable —
// the property the multilingual module needs (§3).
func translit(name, lang string) string {
	switch lang {
	case "de":
		r := strings.NewReplacer("th", "t", "c", "k", "ai", "ei", "x", "chs")
		return r.Replace(name)
	case "fr":
		r := strings.NewReplacer("k", "qu", "us", "ous", "ia", "ie", "th", "t")
		return r.Replace(name)
	case "es":
		r := strings.NewReplacer("th", "t", "x", "j", "k", "c")
		return r.Replace(name)
	default:
		return name
	}
}

// iriFrom builds a KB IRI from a display name: "Steve Jobs" ->
// "kb:Steve_Jobs".
func iriFrom(prefix, name string) string {
	return prefix + strings.ReplaceAll(name, " ", "_")
}
