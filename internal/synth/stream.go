package synth

import (
	"fmt"
	"math/rand"

	"kbharvest/internal/temporal"
)

// Social-media stream generator for the tutorial's motivating analytics
// example: "track and compare two entities in social media over an
// extended timespan (e.g., the Apple iPhone vs. Samsung Galaxy families)"
// (§4). Posts mention products either by full name ("Nova 3") or by the
// ambiguous line word ("Nova"), which string matching cannot attribute to
// a specific product generation but NED can.

// Post is one timestamped social-media message.
type Post struct {
	Day      int // day number since 1900-01-01 (temporal.Date.DayNum)
	Text     string
	Mentions []Mention // gold product mentions
}

// StreamOptions configure the generator.
type StreamOptions struct {
	// Lines are the product line names to cover (default: the two most
	// populous lines in the world).
	Lines []string
	// Posts is the total number of posts. Default 2000.
	Posts int
	// StartDay / Days bound the timespan. Defaults: 2012-01-01, 360 days.
	StartDay int
	Days     int
	Seed     int64
}

// DefaultStreamOptions picks the two biggest product lines.
func DefaultStreamOptions(w *World) StreamOptions {
	counts := make(map[string]int)
	for _, line := range w.ProductLine {
		counts[line]++
	}
	best, second := "", ""
	for line, n := range counts {
		switch {
		case best == "" || n > counts[best] || (n == counts[best] && line < best):
			second = best
			best = line
		case second == "" || n > counts[second] || (n == counts[second] && line < second):
			second = line
		}
	}
	return StreamOptions{
		Lines:    []string{best, second},
		Posts:    2000,
		StartDay: temporal.Date{Year: 2012, Month: 1, Day: 1}.DayNum(),
		Days:     360,
		Seed:     99,
	}
}

var postTemplates = []string{
	"Just got the new %s and I love it!",
	"My %s battery died again today.",
	"Is the %s worth the upgrade?",
	"The camera on the %s is amazing.",
	"Thinking about switching to the %s.",
	"%s keeps crashing, so frustrating.",
	"Unboxing my %s later today!",
	"The %s display is gorgeous.",
}

var fillerPosts = []string{
	"Lunch was great today.",
	"Traffic is terrible this morning.",
	"Watching the game tonight with friends.",
	"New coffee place opened downtown.",
}

// GenerateStream renders the post stream. Per post: 70% mention a product
// from one of the tracked lines (half by ambiguous line word, half by full
// name), 30% are filler noise.
func GenerateStream(w *World, opt StreamOptions) []Post {
	if opt.Posts == 0 {
		def := DefaultStreamOptions(w)
		if len(opt.Lines) == 0 {
			opt.Lines = def.Lines
		}
		opt.Posts = def.Posts
		opt.StartDay = def.StartDay
		opt.Days = def.Days
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	// Collect tracked products per line.
	byLine := make(map[string][]*Entity)
	for _, p := range w.Products {
		byLine[w.ProductLine[p.ID]] = append(byLine[w.ProductLine[p.ID]], p)
	}
	posts := make([]Post, 0, opt.Posts)
	for i := 0; i < opt.Posts; i++ {
		day := opt.StartDay + rng.Intn(opt.Days)
		if rng.Float64() < 0.3 {
			posts = append(posts, Post{Day: day, Text: fillerPosts[rng.Intn(len(fillerPosts))]})
			continue
		}
		line := opt.Lines[rng.Intn(len(opt.Lines))]
		prods := byLine[line]
		if len(prods) == 0 {
			posts = append(posts, Post{Day: day, Text: fillerPosts[rng.Intn(len(fillerPosts))]})
			continue
		}
		prod := prods[rng.Intn(len(prods))]
		surface := prod.Name
		if rng.Intn(2) == 0 {
			// Ambiguous bare-brand mention. Realistically, chatter about
			// "the Nova" mostly means the latest generation on the
			// market, so bias the referent to the most recently released
			// product of the line as of the post day.
			surface = line
			if latest, ok := latestReleasedBefore(w, prods, day); ok && rng.Float64() < 0.7 {
				prod = latest
			}
		}
		tmpl := postTemplates[rng.Intn(len(postTemplates))]
		// Build text and mention offsets.
		idx := indexOfPct(tmpl)
		text := fmt.Sprintf(tmpl, surface)
		posts = append(posts, Post{
			Day:  day,
			Text: text,
			Mentions: []Mention{{
				Start: idx, End: idx + len(surface), Surface: surface, Entity: prod.ID,
			}},
		})
	}
	return posts
}

// ReleaseDay returns the day a product was released (the kb:created
// event date), or false if unknown.
func (w *World) ReleaseDay(productID string) (int, bool) {
	for _, f := range w.FactsOf(RelCreated) {
		if f.O == productID {
			return f.Time.Begin, true
		}
	}
	return 0, false
}

// latestReleasedBefore picks the line's most recently released product as
// of the given day (nil if none released yet).
func latestReleasedBefore(w *World, prods []*Entity, day int) (*Entity, bool) {
	var best *Entity
	bestDay := -1 << 62
	for _, p := range prods {
		rd, ok := w.ReleaseDay(p.ID)
		if !ok || rd > day {
			continue
		}
		if rd > bestDay {
			best, bestDay = p, rd
		}
	}
	return best, best != nil
}

func indexOfPct(tmpl string) int {
	for i := 0; i+1 < len(tmpl); i++ {
		if tmpl[i] == '%' && tmpl[i+1] == 's' {
			return i
		}
	}
	return 0
}
