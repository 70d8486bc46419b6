package synth

import (
	"fmt"
	"math/rand"
	"sort"

	"kbharvest/internal/core"
	"kbharvest/internal/rdf"
	"kbharvest/internal/temporal"
)

// Class IRIs of the ground-truth taxonomy.
const (
	ClassEntity       = "kb:entity"
	ClassPerson       = "kb:person"
	ClassScientist    = "kb:scientist"
	ClassPhysicist    = "kb:physicist"
	ClassChemist      = "kb:chemist"
	ClassEntrepreneur = "kb:entrepreneur"
	ClassMusician     = "kb:musician"
	ClassOrganization = "kb:organization"
	ClassCompany      = "kb:company"
	ClassUniversity   = "kb:university"
	ClassLocation     = "kb:location"
	ClassCity         = "kb:city"
	ClassCountry      = "kb:country"
	ClassArtifact     = "kb:artifact"
	ClassProduct      = "kb:product"
	ClassSmartphone   = "kb:smartphone"
	ClassAward        = "kb:award"
)

// Relation IRIs of the ground-truth schema.
const (
	RelBornIn        = "kb:bornIn"
	RelBornOnDate    = "kb:bornOnDate"
	RelMarriedTo     = "kb:marriedTo"
	RelFounded       = "kb:founded"
	RelCEOOf         = "kb:ceoOf"
	RelWorksAt       = "kb:worksAt"
	RelGraduatedFrom = "kb:graduatedFrom"
	RelWonPrize      = "kb:wonPrize"
	RelLocatedIn     = "kb:locatedIn"
	RelAcquired      = "kb:acquired"
	RelCreated       = "kb:created"
	RelRivalOf       = "kb:rivalOf"
)

// RelationSchema describes one relation: its type signature and temporal
// behaviour. The consistency reasoner (§3) and rule miner consume these.
type RelationSchema struct {
	ID         string
	Domain     string // required subject class
	Range      string // required object class
	Functional bool   // at most one object per subject (at a time)
	Temporal   bool   // facts carry validity intervals
	Symmetric  bool
}

// Schema lists every relation of the synthetic world.
var Schema = []RelationSchema{
	{ID: RelBornIn, Domain: ClassPerson, Range: ClassCity, Functional: true},
	{ID: RelMarriedTo, Domain: ClassPerson, Range: ClassPerson, Temporal: true, Symmetric: true},
	{ID: RelFounded, Domain: ClassPerson, Range: ClassCompany},
	{ID: RelCEOOf, Domain: ClassPerson, Range: ClassCompany, Temporal: true},
	{ID: RelWorksAt, Domain: ClassPerson, Range: ClassCompany, Temporal: true},
	{ID: RelGraduatedFrom, Domain: ClassPerson, Range: ClassUniversity},
	{ID: RelWonPrize, Domain: ClassPerson, Range: ClassAward},
	// locatedIn covers both organization->city and city->country.
	{ID: RelLocatedIn, Domain: ClassEntity, Range: ClassLocation, Functional: true},
	{ID: RelAcquired, Domain: ClassCompany, Range: ClassCompany},
	{ID: RelCreated, Domain: ClassCompany, Range: ClassProduct},
	{ID: RelRivalOf, Domain: ClassProduct, Range: ClassProduct, Symmetric: true},
}

// SchemaOf returns the schema of a relation IRI.
func SchemaOf(rel string) (RelationSchema, bool) {
	for _, s := range Schema {
		if s.ID == rel {
			return s, true
		}
	}
	return RelationSchema{}, false
}

// Entity is one ground-truth entity.
type Entity struct {
	ID      string            // IRI, e.g. "kb:Aldra_Venn"
	Name    string            // canonical English surface form
	Aliases []string          // additional surface forms (incl. ambiguous)
	Class   string            // most specific class IRI
	Labels  map[string]string // language -> name
}

// Fact is one ground-truth relational fact with optional temporal scope.
type Fact struct {
	S, P, O string
	// Time is the validity interval for temporal relations, or the event
	// day (Begin==End) for event-like relations; core.Always otherwise.
	Time core.Interval
	// Date is the human-readable event date where one exists.
	Date temporal.Date
}

// Config sizes the generated world.
type Config struct {
	People       int
	Companies    int
	Cities       int
	Countries    int
	Universities int
	Products     int
	Prizes       int
	// AmbiguityShare is the fraction of people whose family name is
	// drawn from a shared pool (creating NED ambiguity). Default 0.5.
	AmbiguityShare float64
}

// DefaultConfig returns a laptop-scale world adequate for all experiments.
func DefaultConfig() Config {
	return Config{
		People:       300,
		Companies:    80,
		Cities:       40,
		Countries:    8,
		Universities: 20,
		Products:     60,
		Prizes:       12,
	}
}

// Scaled multiplies entity counts by f (min 1 each) for scaling sweeps.
func (c Config) Scaled(f float64) Config {
	mul := func(n int) int {
		v := int(float64(n) * f)
		if v < 1 {
			v = 1
		}
		return v
	}
	return Config{
		People:         mul(c.People),
		Companies:      mul(c.Companies),
		Cities:         mul(c.Cities),
		Countries:      mul(c.Countries),
		Universities:   mul(c.Universities),
		Products:       mul(c.Products),
		Prizes:         mul(c.Prizes),
		AmbiguityShare: c.AmbiguityShare,
	}
}

// World is the generated ground truth.
type World struct {
	Cfg      Config
	Truth    *core.Store // every gold fact, type, and label
	Entities []*Entity
	ByID     map[string]*Entity
	Facts    []Fact

	People       []*Entity
	Companies    []*Entity
	Cities       []*Entity
	Countries    []*Entity
	Universities []*Entity
	Products     []*Entity
	Prizes       []*Entity

	// ProductLine maps product entity ID -> line name ("Nova"), the
	// shared brand word.
	ProductLine map[string]string

	rng *rand.Rand
}

// Generate builds a world deterministically from cfg and seed.
func Generate(cfg Config, seed int64) *World {
	if cfg.AmbiguityShare == 0 {
		cfg.AmbiguityShare = 0.5
	}
	rng := rand.New(rand.NewSource(seed))
	w := &World{
		Cfg:         cfg,
		Truth:       core.NewStore(),
		ByID:        make(map[string]*Entity),
		ProductLine: make(map[string]string),
		rng:         rng,
	}
	w.buildTaxonomy()
	g := newNameGen(rng)
	w.makeCountries(g)
	w.makeCities(g)
	w.makeUniversities(g)
	w.makePeople(g)
	w.makeCompanies(g)
	w.makeProducts(g)
	w.makePrizes(g)
	w.makeRelations()
	w.assertLabels()
	return w
}

func (w *World) buildTaxonomy() {
	pairs := [][2]string{
		{ClassPerson, ClassEntity},
		{ClassScientist, ClassPerson},
		{ClassPhysicist, ClassScientist},
		{ClassChemist, ClassScientist},
		{ClassEntrepreneur, ClassPerson},
		{ClassMusician, ClassPerson},
		{ClassOrganization, ClassEntity},
		{ClassCompany, ClassOrganization},
		{ClassUniversity, ClassOrganization},
		{ClassLocation, ClassEntity},
		{ClassCity, ClassLocation},
		{ClassCountry, ClassLocation},
		{ClassArtifact, ClassEntity},
		{ClassProduct, ClassArtifact},
		{ClassSmartphone, ClassProduct},
		{ClassAward, ClassEntity},
	}
	ts := make([]rdf.Triple, len(pairs))
	for i, p := range pairs {
		ts[i] = rdf.T(p[0], rdf.RDFSSubClassOf, p[1])
	}
	w.Truth.AddBatch(ts)
}

// TaxonomyPairs returns the gold subclass edges (sub, super), sorted.
func (w *World) TaxonomyPairs() [][2]string {
	var out [][2]string
	w.Truth.MatchFunc(rdf.Triple{P: rdf.NewIRI(rdf.RDFSSubClassOf)}, func(_ core.FactID, t rdf.Triple) bool {
		out = append(out, [2]string{t.S.Value, t.O.Value})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func (w *World) addEntity(e *Entity) {
	w.Entities = append(w.Entities, e)
	w.ByID[e.ID] = e
	w.Truth.AddType(e.ID, e.Class)
}

func (w *World) makeCountries(g *nameGen) {
	for i := 0; i < w.Cfg.Countries; i++ {
		name := g.unique(2) + "ia"
		e := &Entity{ID: iriFrom("kb:", name), Name: name, Class: ClassCountry}
		w.Countries = append(w.Countries, e)
		w.addEntity(e)
	}
}

func (w *World) makeCities(g *nameGen) {
	for i := 0; i < w.Cfg.Cities; i++ {
		name := g.unique(2)
		e := &Entity{ID: iriFrom("kb:", name), Name: name, Class: ClassCity}
		w.Cities = append(w.Cities, e)
		w.addEntity(e)
		country := w.Countries[w.rng.Intn(len(w.Countries))]
		w.addFact(Fact{S: e.ID, P: RelLocatedIn, O: country.ID, Time: core.Always})
	}
}

func (w *World) makeUniversities(g *nameGen) {
	for i := 0; i < w.Cfg.Universities; i++ {
		city := w.Cities[w.rng.Intn(len(w.Cities))]
		name := g.universityName(city.Name)
		e := &Entity{ID: iriFrom("kb:", name), Name: name, Class: ClassUniversity}
		w.Universities = append(w.Universities, e)
		w.addEntity(e)
		w.addFact(Fact{S: e.ID, P: RelLocatedIn, O: city.ID, Time: core.Always})
	}
}

var personClasses = []string{ClassPhysicist, ClassChemist, ClassEntrepreneur, ClassMusician}

func (w *World) makePeople(g *nameGen) {
	// Shared family-name pool: smaller than the population, so names
	// repeat — the primary ambiguity source for NED (§4).
	nShared := w.Cfg.People / 8
	if nShared < 2 {
		nShared = 2
	}
	sharedFamilies := g.pool(nShared, 2)
	for i := 0; i < w.Cfg.People; i++ {
		given := g.word(2) // given names may repeat; full names must not
		var family string
		if w.rng.Float64() < w.Cfg.AmbiguityShare {
			family = sharedFamilies[w.rng.Intn(len(sharedFamilies))]
		} else {
			family = g.unique(2)
		}
		full := given + " " + family
		if g.used[full] {
			full = given + " " + g.unique(2)
			family = full[len(given)+1:]
		}
		g.used[full] = true
		cls := personClasses[w.rng.Intn(len(personClasses))]
		e := &Entity{
			ID:      iriFrom("kb:", full),
			Name:    full,
			Aliases: []string{family, given + " " + family[:1] + "."},
			Class:   cls,
		}
		w.People = append(w.People, e)
		w.addEntity(e)
		// Birth facts.
		city := w.Cities[w.rng.Intn(len(w.Cities))]
		birth := temporal.Date{
			Year:  1900 + w.rng.Intn(100),
			Month: 1 + w.rng.Intn(12),
		}
		birth.Day = 1 + w.rng.Intn(temporal.DaysInMonth(birth.Year, birth.Month))
		w.addFact(Fact{S: e.ID, P: RelBornIn, O: city.ID,
			Time: core.Interval{Begin: birth.DayNum(), End: birth.DayNum()}, Date: birth})
		w.Truth.Add(rdf.Triple{
			S: rdf.NewIRI(e.ID), P: rdf.NewIRI(RelBornOnDate),
			O: rdf.NewTypedLiteral(birth.String(), rdf.XSDDate),
		})
	}
}

func (w *World) makeCompanies(g *nameGen) {
	for i := 0; i < w.Cfg.Companies; i++ {
		// Half of companies take a founder family name -> ambiguity.
		family := ""
		if i < len(w.People) && w.rng.Intn(2) == 0 {
			p := w.People[w.rng.Intn(len(w.People))]
			family = familyOf(p.Name)
		}
		name := g.companyName(family)
		e := &Entity{
			ID:      iriFrom("kb:", name),
			Name:    name,
			Aliases: []string{firstWord(name)},
			Class:   ClassCompany,
		}
		w.Companies = append(w.Companies, e)
		w.addEntity(e)
		city := w.Cities[w.rng.Intn(len(w.Cities))]
		w.addFact(Fact{S: e.ID, P: RelLocatedIn, O: city.ID, Time: core.Always})
	}
}

func (w *World) makeProducts(g *nameGen) {
	gen := make(map[string]int) // line -> last generation issued
	for i := 0; i < w.Cfg.Products; i++ {
		line := productLines[w.rng.Intn(len(productLines))]
		gen[line]++
		name := g.productName(line, gen[line])
		e := &Entity{
			ID:      iriFrom("kb:", name),
			Name:    name,
			Aliases: []string{line}, // the ambiguous brand word
			Class:   ClassSmartphone,
		}
		w.Products = append(w.Products, e)
		w.ProductLine[e.ID] = line
		w.addEntity(e)
	}
}

func (w *World) makePrizes(g *nameGen) {
	for i := 0; i < w.Cfg.Prizes; i++ {
		name := g.prizeName()
		e := &Entity{ID: iriFrom("kb:", name), Name: name, Class: ClassAward}
		w.Prizes = append(w.Prizes, e)
		w.addEntity(e)
	}
}

// dayOfYear returns a day number within the given year.
func (w *World) dayInYear(year int) (int, temporal.Date) {
	d := temporal.Date{Year: year, Month: 1 + w.rng.Intn(12)}
	d.Day = 1 + w.rng.Intn(temporal.DaysInMonth(d.Year, d.Month))
	return d.DayNum(), d
}

func (w *World) makeRelations() {
	rng := w.rng
	// founded / ceoOf: each company gets 1-2 founders and a CEO history.
	for _, c := range w.Companies {
		foundYear := 1950 + rng.Intn(60)
		foundDay, foundDate := w.dayInYear(foundYear)
		nf := 1 + rng.Intn(2)
		var founders []*Entity
		for j := 0; j < nf; j++ {
			p := w.People[rng.Intn(len(w.People))]
			founders = append(founders, p)
			w.addFact(Fact{S: p.ID, P: RelFounded, O: c.ID,
				Time: core.Interval{Begin: foundDay, End: foundDay}, Date: foundDate})
		}
		// CEO: founder first, successor later.
		ceoEnd := foundDay + 365*(3+rng.Intn(15))
		w.addFact(Fact{S: founders[0].ID, P: RelCEOOf, O: c.ID,
			Time: core.Interval{Begin: foundDay, End: ceoEnd}, Date: foundDate})
		succ := w.People[rng.Intn(len(w.People))]
		if succ != founders[0] {
			w.addFact(Fact{S: succ.ID, P: RelCEOOf, O: c.ID,
				Time: core.Interval{Begin: ceoEnd + 1, End: core.MaxDay}})
		}
	}
	// worksAt: each person 1-3 jobs with disjoint intervals.
	for _, p := range w.People {
		jobs := 1 + rng.Intn(3)
		start, _ := w.dayInYear(1970 + rng.Intn(30))
		for j := 0; j < jobs; j++ {
			c := w.Companies[rng.Intn(len(w.Companies))]
			dur := 365 * (1 + rng.Intn(10))
			w.addFact(Fact{S: p.ID, P: RelWorksAt, O: c.ID,
				Time: core.Interval{Begin: start, End: start + dur}})
			start += dur + 1 + rng.Intn(400)
		}
	}
	// graduatedFrom: 80% of people.
	for _, p := range w.People {
		if rng.Float64() < 0.8 {
			u := w.Universities[rng.Intn(len(w.Universities))]
			day, date := w.dayInYear(1950 + rng.Intn(55))
			w.addFact(Fact{S: p.ID, P: RelGraduatedFrom, O: u.ID,
				Time: core.Interval{Begin: day, End: day}, Date: date})
		}
	}
	// marriedTo: pair up ~40% of people.
	perm := rng.Perm(len(w.People))
	for i := 0; i+1 < len(perm); i += 2 {
		if rng.Float64() > 0.4 {
			continue
		}
		a, b := w.People[perm[i]], w.People[perm[i+1]]
		start, _ := w.dayInYear(1960 + rng.Intn(45))
		end := core.MaxDay
		if rng.Float64() < 0.3 {
			end = start + 365*(2+rng.Intn(20))
		}
		iv := core.Interval{Begin: start, End: end}
		w.addFact(Fact{S: a.ID, P: RelMarriedTo, O: b.ID, Time: iv})
		w.addFact(Fact{S: b.ID, P: RelMarriedTo, O: a.ID, Time: iv})
	}
	// wonPrize: ~30% of people.
	for _, p := range w.People {
		if rng.Float64() < 0.3 {
			pr := w.Prizes[rng.Intn(len(w.Prizes))]
			day, date := w.dayInYear(1960 + rng.Intn(55))
			w.addFact(Fact{S: p.ID, P: RelWonPrize, O: pr.ID,
				Time: core.Interval{Begin: day, End: day}, Date: date})
		}
	}
	// acquired: ~25% of companies acquired another.
	for _, c := range w.Companies {
		if rng.Float64() < 0.25 {
			t := w.Companies[rng.Intn(len(w.Companies))]
			if t == c {
				continue
			}
			day, date := w.dayInYear(1990 + rng.Intn(25))
			w.addFact(Fact{S: c.ID, P: RelAcquired, O: t.ID,
				Time: core.Interval{Begin: day, End: day}, Date: date})
		}
	}
	// created: every product belongs to a company; rivals between lines.
	for i, pr := range w.Products {
		c := w.Companies[rng.Intn(len(w.Companies))]
		day, date := w.dayInYear(2000 + rng.Intn(15))
		w.addFact(Fact{S: c.ID, P: RelCreated, O: pr.ID,
			Time: core.Interval{Begin: day, End: day}, Date: date})
		if i > 0 && rng.Float64() < 0.3 {
			other := w.Products[rng.Intn(i)]
			if w.ProductLine[other.ID] != w.ProductLine[pr.ID] {
				w.addFact(Fact{S: pr.ID, P: RelRivalOf, O: other.ID, Time: core.Always})
				w.addFact(Fact{S: other.ID, P: RelRivalOf, O: pr.ID, Time: core.Always})
			}
		}
	}
}

func (w *World) addFact(f Fact) {
	w.Facts = append(w.Facts, f)
	id := w.Truth.Add(rdf.T(f.S, f.P, f.O))
	w.Truth.SetInfo(id, core.FactInfo{Confidence: 1, Source: "gold", Time: f.Time})
}

var labelLangs = []string{"en", "de", "fr", "es"}

func (w *World) assertLabels() {
	n := 0
	for _, e := range w.Entities {
		n += len(labelLangs) + len(e.Aliases)
	}
	ts := make([]rdf.Triple, 0, n)
	for _, e := range w.Entities {
		e.Labels = make(map[string]string, len(labelLangs))
		for _, lang := range labelLangs {
			name := e.Name
			if lang != "en" {
				name = translit(e.Name, lang)
			}
			e.Labels[lang] = name
			ts = append(ts, rdf.Triple{
				S: rdf.NewIRI(e.ID), P: rdf.NewIRI(rdf.RDFSLabel),
				O: rdf.NewLangLiteral(name, lang),
			})
		}
		for _, a := range e.Aliases {
			ts = append(ts, rdf.Triple{
				S: rdf.NewIRI(e.ID), P: rdf.NewIRI(rdf.SKOSAltLabel),
				O: rdf.NewLangLiteral(a, "en"),
			})
		}
	}
	w.Truth.AddBatch(ts)
}

// HasFact reports whether (s,p,o) is ground truth.
func (w *World) HasFact(s, p, o string) bool {
	return w.Truth.Has(rdf.T(s, p, o))
}

// FactsOf returns all gold facts with the given relation.
func (w *World) FactsOf(rel string) []Fact {
	var out []Fact
	for _, f := range w.Facts {
		if f.P == rel {
			out = append(out, f)
		}
	}
	return out
}

// EntityByName finds an entity by its canonical name.
func (w *World) EntityByName(name string) *Entity {
	return w.ByID[iriFrom("kb:", name)]
}

func familyOf(full string) string {
	i := lastSpace(full)
	if i < 0 {
		return full
	}
	return full[i+1:]
}

func firstWord(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			return s[:i]
		}
	}
	return s
}

func lastSpace(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == ' ' {
			return i
		}
	}
	return -1
}

var _ = fmt.Sprintf // reserved for debug helpers
