package synth

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"kbharvest/internal/core"
	"kbharvest/internal/temporal"
)

// Mention is one entity mention inside an article or post, with its gold
// referent — the supervision signal for the NED experiments (§4).
type Mention struct {
	Start, End int    // byte offsets into the containing text
	Surface    string // the mention string as rendered
	Entity     string // gold entity IRI
	Linked     bool   // rendered as a hyperlink (first mention, usually)
}

// Article is one synthetic Wikipedia-style page.
type Article struct {
	ID         string // "art:<entity>"
	Title      string
	Subject    string // entity IRI the page describes
	Categories []string
	Infobox    map[string]string
	Text       string
	Mentions   []Mention
	Links      []string // outgoing hyperlink targets (entity IRIs)
}

// Corpus is the full article collection plus the category graph.
type Corpus struct {
	Articles  []*Article
	BySubject map[string]*Article
	// CategoryParents maps a category to its parent categories, like
	// Wikipedia's category system (input to taxonomy induction, §2).
	CategoryParents map[string][]string
}

// textBuilder accumulates text while recording mention offsets.
type textBuilder struct {
	b        strings.Builder
	mentions []Mention
	links    map[string]bool
	linked   map[string]bool // entity -> already linked once
	rng      *rand.Rand
}

func newTextBuilder(rng *rand.Rand) *textBuilder {
	return &textBuilder{links: make(map[string]bool), linked: make(map[string]bool), rng: rng}
}

func (tb *textBuilder) raw(s string) { tb.b.WriteString(s) }

// entity emits a mention of e. The first mention of an entity uses its
// canonical name and becomes a hyperlink; later mentions fall back to an
// ambiguous alias with probability ambig.
func (tb *textBuilder) entity(e *Entity, ambig float64) {
	surface := e.Name
	link := false
	if !tb.linked[e.ID] {
		tb.linked[e.ID] = true
		link = true
		tb.links[e.ID] = true
	} else if len(e.Aliases) > 0 && tb.rng.Float64() < ambig {
		surface = e.Aliases[tb.rng.Intn(len(e.Aliases))]
	}
	start := tb.b.Len()
	tb.b.WriteString(surface)
	tb.mentions = append(tb.mentions, Mention{
		Start: start, End: tb.b.Len(), Surface: surface, Entity: e.ID, Linked: link,
	})
}

// ambigMention forces an alias mention (used to guarantee hard NED cases).
func (tb *textBuilder) ambigMention(e *Entity) {
	surface := e.Name
	if len(e.Aliases) > 0 {
		surface = e.Aliases[0]
	}
	start := tb.b.Len()
	tb.b.WriteString(surface)
	tb.mentions = append(tb.mentions, Mention{
		Start: start, End: tb.b.Len(), Surface: surface, Entity: e.ID,
	})
}

// CorpusOptions tune the article renderer.
type CorpusOptions struct {
	// NoiseRate is the probability that an article gains a corrupted
	// fact sentence (wrong object), the errors consistency reasoning
	// must clean up (§3). Default 0.08.
	NoiseRate float64
	// AliasRate is the probability that a repeat mention uses an
	// ambiguous alias. Default 0.45.
	AliasRate float64
	// InfoboxRate is the probability a fact appears in the infobox.
	// Default 0.7.
	InfoboxRate float64
	Seed        int64
}

// DefaultCorpusOptions returns the standard settings.
func DefaultCorpusOptions() CorpusOptions {
	return CorpusOptions{NoiseRate: 0.08, AliasRate: 0.45, InfoboxRate: 0.7, Seed: 42}
}

// classNoun maps a class IRI to its singular English noun.
var classNoun = map[string]string{
	ClassPhysicist:    "physicist",
	ClassChemist:      "chemist",
	ClassEntrepreneur: "entrepreneur",
	ClassMusician:     "musician",
	ClassScientist:    "scientist",
	ClassPerson:       "person",
	ClassCompany:      "company",
	ClassUniversity:   "university",
	ClassCity:         "city",
	ClassCountry:      "country",
	ClassSmartphone:   "smartphone",
	ClassProduct:      "product",
	ClassAward:        "award",
	ClassOrganization: "organization",
	ClassLocation:     "location",
	ClassArtifact:     "artifact",
	ClassEntity:       "entity",
}

// ClassNoun exposes the class -> noun mapping (used by taxonomy eval).
func ClassNoun(class string) string { return classNoun[class] }

// categoryForClass renders the conceptual category name of a class
// ("kb:physicist" -> "Physicists").
func categoryForClass(class string) string {
	n := classNoun[class]
	if n == "" {
		return ""
	}
	return pluralizeTitle(n)
}

// CategoryForClass exposes categoryForClass for evaluation code.
func CategoryForClass(class string) string { return categoryForClass(class) }

func pluralizeTitle(noun string) string {
	p := Plural(noun)
	return strings.ToUpper(p[:1]) + p[1:]
}

// Plural returns the English plural of a (regular) noun.
func Plural(n string) string {
	switch {
	case strings.HasSuffix(n, "y") && len(n) > 1 && !isVowelByte(n[len(n)-2]):
		return n[:len(n)-1] + "ies"
	case strings.HasSuffix(n, "s"), strings.HasSuffix(n, "x"),
		strings.HasSuffix(n, "ch"), strings.HasSuffix(n, "sh"):
		return n + "es"
	default:
		return n + "s"
	}
}

func isVowelByte(b byte) bool {
	switch b {
	case 'a', 'e', 'i', 'o', 'u':
		return true
	}
	return false
}

// adminCategories are maintenance categories that taxonomy induction must
// filter out (they carry no class information).
var adminCategories = []string{
	"Articles with unsourced statements",
	"Articles needing cleanup",
	"Pages with broken file links",
	"Stubs",
	"All article disambiguation pages",
}

// thematicCategories are topic (non-class) categories; their head noun is
// singular, which is the signal the WikiTaxonomy/YAGO heuristic uses to
// reject them.
var thematicCategories = []string{
	"Science", "Technology", "Music", "Industry", "Education", "Commerce",
}

// BuildCorpus renders one article per entity.
func BuildCorpus(w *World, opt CorpusOptions) *Corpus {
	if opt.NoiseRate == 0 && opt.AliasRate == 0 && opt.InfoboxRate == 0 {
		opt = DefaultCorpusOptions()
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	c := &Corpus{
		BySubject:       make(map[string]*Article),
		CategoryParents: make(map[string][]string),
	}
	c.buildCategoryGraph(w)
	// Gold facts by subject, each list in w.Facts order: the renderer
	// draws from rng once per fact, so that order fixes every article.
	bySubject := make(map[string][]Fact, len(w.Entities))
	for _, f := range w.Facts {
		bySubject[f.S] = append(bySubject[f.S], f)
	}
	for _, e := range w.Entities {
		a := renderArticle(w, e, bySubject[e.ID], opt, rng)
		c.Articles = append(c.Articles, a)
		c.BySubject[e.ID] = a
	}
	return c
}

// buildCategoryGraph mirrors the gold taxonomy as a category hierarchy and
// adds thematic/administrative parents as noise.
func (c *Corpus) buildCategoryGraph(w *World) {
	for _, pair := range w.TaxonomyPairs() {
		sub, super := categoryForClass(pair[0]), categoryForClass(pair[1])
		if sub == "" || super == "" {
			continue
		}
		c.CategoryParents[sub] = append(c.CategoryParents[sub], super)
	}
	// Thematic parents (must be filtered by induction).
	c.CategoryParents[categoryForClass(ClassPhysicist)] = append(c.CategoryParents[categoryForClass(ClassPhysicist)], "Science")
	c.CategoryParents[categoryForClass(ClassChemist)] = append(c.CategoryParents[categoryForClass(ClassChemist)], "Science")
	c.CategoryParents[categoryForClass(ClassCompany)] = append(c.CategoryParents[categoryForClass(ClassCompany)], "Commerce")
	c.CategoryParents[categoryForClass(ClassUniversity)] = append(c.CategoryParents[categoryForClass(ClassUniversity)], "Education")
	c.CategoryParents[categoryForClass(ClassMusician)] = append(c.CategoryParents[categoryForClass(ClassMusician)], "Music")
	c.CategoryParents[categoryForClass(ClassSmartphone)] = append(c.CategoryParents[categoryForClass(ClassSmartphone)], "Technology")
	for cat, parents := range c.CategoryParents {
		sort.Strings(parents)
		c.CategoryParents[cat] = parents
	}
}

// renderArticle renders e's page; facts are the gold facts with e as
// subject.
func renderArticle(w *World, e *Entity, facts []Fact, opt CorpusOptions, rng *rand.Rand) *Article {
	a := &Article{
		ID:      "art:" + e.ID,
		Title:   e.Name,
		Subject: e.ID,
		Infobox: make(map[string]string),
	}
	tb := newTextBuilder(rng)
	tb.linked[e.ID] = true // the subject itself is not a link

	// Categories: conceptual (class), thematic, administrative noise.
	a.Categories = append(a.Categories, categoryForClass(e.Class))
	if e.Class == ClassPhysicist || e.Class == ClassChemist {
		a.Categories = append(a.Categories, categoryForClass(ClassScientist))
	}
	if rng.Float64() < 0.5 {
		a.Categories = append(a.Categories, thematicCategories[rng.Intn(len(thematicCategories))])
	}
	if rng.Float64() < 0.4 {
		a.Categories = append(a.Categories, adminCategories[rng.Intn(len(adminCategories))])
	}

	// Lead sentence.
	noun := classNoun[e.Class]
	tb.raw(e.Name)
	tb.raw(" is a " + withArticleFix(noun) + ".")

	// Facts about this entity (as subject), rendered with template variety.
	for _, f := range facts {
		tb.raw(" ")
		renderFact(w, tb, f, opt, rng)
		if keyVal, ok := infoboxEntry(w, f); ok && rng.Float64() < opt.InfoboxRate {
			a.Infobox[keyVal[0]] = keyVal[1]
		}
	}

	// Noise: a corrupted fact sentence (object swapped within type class).
	if len(facts) > 0 && rng.Float64() < opt.NoiseRate {
		f := facts[rng.Intn(len(facts))]
		if corrupted, ok := corruptFact(w, f, rng); ok {
			tb.raw(" ")
			renderFact(w, tb, corrupted, opt, rng)
		}
	}

	// A distractor sentence mentioning a random related entity (context
	// for NED, plus link-graph density).
	if rng.Float64() < 0.6 && len(w.People) > 0 {
		other := w.Entities[rng.Intn(len(w.Entities))]
		if other.ID != e.ID {
			tb.raw(" ")
			tb.raw(distractors[rng.Intn(len(distractors))])
			tb.raw(" ")
			tb.entity(other, opt.AliasRate)
			tb.raw(".")
		}
	}

	a.Text = tb.b.String()
	a.Mentions = tb.mentions
	for id := range tb.links {
		a.Links = append(a.Links, id)
	}
	sort.Strings(a.Links)
	return a
}

var distractors = []string{
	"Commentators often draw comparisons with",
	"The press frequently mentioned",
	"Industry observers contrasted this with",
}

func withArticleFix(noun string) string {
	if noun == "" {
		return "notable entity"
	}
	return noun
}

// corruptFact swaps the object for another entity of the same class,
// producing a false-but-well-typed statement.
func corruptFact(w *World, f Fact, rng *rand.Rand) (Fact, bool) {
	obj, ok := w.ByID[f.O]
	if !ok {
		return Fact{}, false
	}
	pool := poolOfClass(w, obj.Class)
	if len(pool) < 2 {
		return Fact{}, false
	}
	for i := 0; i < 10; i++ {
		cand := pool[rng.Intn(len(pool))]
		if cand.ID != f.O && !w.HasFact(f.S, f.P, cand.ID) {
			g := f
			g.O = cand.ID
			return g, true
		}
	}
	return Fact{}, false
}

func poolOfClass(w *World, class string) []*Entity {
	switch class {
	case ClassCity:
		return w.Cities
	case ClassCountry:
		return w.Countries
	case ClassCompany:
		return w.Companies
	case ClassUniversity:
		return w.Universities
	case ClassSmartphone, ClassProduct:
		return w.Products
	case ClassAward:
		return w.Prizes
	default:
		return w.People
	}
}

// renderFact writes one sentence expressing f, choosing among paraphrase
// templates. Each template interleaves raw text and entity mentions so
// offsets stay exact.
func renderFact(w *World, tb *textBuilder, f Fact, opt CorpusOptions, rng *rand.Rand) {
	s, sOK := w.ByID[f.S]
	o, oOK := w.ByID[f.O]
	if !sOK || !oOK {
		return
	}
	year := ""
	if f.Date.Year != 0 {
		year = fmt.Sprintf("%d", f.Date.Year)
	}
	y1, y2 := intervalYears(f.Time)
	em := func(e *Entity) { tb.entity(e, opt.AliasRate) }
	pick := func(n int) int { return rng.Intn(n) }

	switch f.P {
	case RelBornIn:
		switch pick(2) {
		case 0:
			em(s)
			tb.raw(" was born in ")
			em(o)
			tb.raw(" on " + f.Date.Format() + ".")
		default:
			em(s)
			tb.raw(" was born on " + f.Date.Format() + " in ")
			em(o)
			tb.raw(".")
		}
	case RelFounded:
		switch pick(4) {
		case 0:
			em(s)
			tb.raw(" founded ")
			em(o)
			tb.raw(" in " + year + ".")
		case 1:
			em(o)
			tb.raw(" was founded by ")
			em(s)
			tb.raw(" in " + year + ".")
		case 2:
			tb.raw("In " + year + ", ")
			em(s)
			tb.raw(" established ")
			em(o)
			tb.raw(".")
		default:
			em(s)
			tb.raw(" started ")
			em(o)
			tb.raw(".")
		}
	case RelCEOOf:
		if pick(2) == 0 {
			em(s)
			tb.raw(" served as CEO of ")
			em(o)
			tb.raw(" from " + y1 + " to " + y2 + ".")
		} else {
			em(s)
			tb.raw(" led ")
			em(o)
			tb.raw(" between " + y1 + " and " + y2 + ".")
		}
	case RelWorksAt:
		switch pick(3) {
		case 0:
			tb.raw("From " + y1 + " to " + y2 + ", ")
			em(s)
			tb.raw(" worked at ")
			em(o)
			tb.raw(".")
		case 1:
			em(s)
			tb.raw(" joined ")
			em(o)
			tb.raw(" in " + y1 + ".")
		default:
			em(s)
			tb.raw(" worked at ")
			em(o)
			tb.raw(" from " + y1 + " until " + y2 + ".")
		}
	case RelGraduatedFrom:
		if pick(2) == 0 {
			em(s)
			tb.raw(" graduated from ")
			em(o)
			tb.raw(" in " + year + ".")
		} else {
			em(s)
			tb.raw(" studied at ")
			em(o)
			tb.raw(".")
		}
	case RelMarriedTo:
		if pick(2) == 0 {
			em(s)
			tb.raw(" married ")
			em(o)
			tb.raw(" in " + y1 + ".")
		} else {
			em(s)
			tb.raw(" is married to ")
			em(o)
			tb.raw(".")
		}
	case RelWonPrize:
		if pick(2) == 0 {
			em(s)
			tb.raw(" won the ")
			em(o)
			tb.raw(" in " + year + ".")
		} else {
			em(s)
			tb.raw(" received the ")
			em(o)
			tb.raw(" in " + year + ".")
		}
	case RelLocatedIn:
		switch pick(3) {
		case 0:
			em(s)
			tb.raw(" is headquartered in ")
			em(o)
			tb.raw(".")
		case 1:
			em(s)
			tb.raw(" is located in ")
			em(o)
			tb.raw(".")
		default:
			em(s)
			tb.raw(" is based in ")
			em(o)
			tb.raw(".")
		}
	case RelAcquired:
		switch pick(3) {
		case 0:
			em(s)
			tb.raw(" acquired ")
			em(o)
			tb.raw(" in " + year + ".")
		case 1:
			em(o)
			tb.raw(" was acquired by ")
			em(s)
			tb.raw(" in " + year + ".")
		default:
			em(s)
			tb.raw(" bought ")
			em(o)
			tb.raw(" in " + year + ".")
		}
	case RelCreated:
		switch pick(3) {
		case 0:
			em(s)
			tb.raw(" released the ")
			em(o)
			tb.raw(" in " + year + ".")
		case 1:
			tb.raw("The ")
			em(o)
			tb.raw(" was released by ")
			em(s)
			tb.raw(" in " + year + ".")
		default:
			em(s)
			tb.raw(" unveiled the ")
			em(o)
			tb.raw(" in " + year + ".")
		}
	case RelRivalOf:
		tb.raw("The ")
		em(s)
		tb.raw(" competes with the ")
		em(o)
		tb.raw(".")
	default:
		em(s)
		tb.raw(" is related to ")
		em(o)
		tb.raw(".")
	}
}

func intervalYears(iv core.Interval) (string, string) {
	y1 := "1900"
	if iv.Begin != core.MinDay {
		y1 = fmt.Sprintf("%d", temporal.FromDay(iv.Begin).Year)
	}
	y2 := "present"
	if iv.End != core.MaxDay {
		y2 = fmt.Sprintf("%d", temporal.FromDay(iv.End).Year)
	}
	return y1, y2
}

// infoboxEntry maps a fact to an infobox key/value if the relation has an
// infobox rendering.
func infoboxEntry(w *World, f Fact) ([2]string, bool) {
	o, ok := w.ByID[f.O]
	if !ok {
		return [2]string{}, false
	}
	switch f.P {
	case RelBornIn:
		return [2]string{"birth_place", o.Name}, true
	case RelFounded:
		return [2]string{"founded_org", o.Name}, true
	case RelLocatedIn:
		return [2]string{"location", o.Name}, true
	case RelGraduatedFrom:
		return [2]string{"alma_mater", o.Name}, true
	case RelMarriedTo:
		return [2]string{"spouse", o.Name}, true
	case RelWorksAt:
		return [2]string{"employer", o.Name}, true
	case RelCreated:
		return [2]string{"products", o.Name}, true
	case RelWonPrize:
		return [2]string{"awards", o.Name}, true
	}
	return [2]string{}, false
}

// InfoboxRelation maps an infobox key back to its relation and orientation
// (the harvesting rule the pattern extractor uses).
func InfoboxRelation(key string) (rel string, inverted bool, ok bool) {
	switch key {
	case "birth_place":
		return RelBornIn, false, true
	case "founded_org":
		return RelFounded, false, true
	case "location":
		return RelLocatedIn, false, true
	case "alma_mater":
		return RelGraduatedFrom, false, true
	case "spouse":
		return RelMarriedTo, false, true
	case "employer":
		return RelWorksAt, false, true
	case "products":
		return RelCreated, false, true
	case "awards":
		return RelWonPrize, false, true
	}
	return "", false, false
}
