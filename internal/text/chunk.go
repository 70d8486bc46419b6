package text

// Phrase chunking: grouping tagged tokens into base noun phrases and verb
// groups. Open information extraction "aggressively taps into noun phrases
// as entity candidates and verbal phrases as prototypic patterns for
// relations" (§3) — this chunker supplies exactly those units.

// ChunkKind labels a chunk.
type ChunkKind uint8

const (
	// ChunkNP is a base noun phrase (optional determiner, adjectives,
	// nouns / proper nouns).
	ChunkNP ChunkKind = iota
	// ChunkVP is a verb group (optional auxiliaries/modals/adverbs plus a
	// head verb, optionally followed by a particle/preposition glued by
	// the extractor, not here).
	ChunkVP
	// ChunkOther covers everything else, one token per chunk.
	ChunkOther
)

func (k ChunkKind) String() string {
	switch k {
	case ChunkNP:
		return "NP"
	case ChunkVP:
		return "VP"
	default:
		return "O"
	}
}

// Chunk is a contiguous span of tagged tokens.
type Chunk struct {
	Kind   ChunkKind
	Tokens []TaggedToken
	First  int // index of first token in the sentence
	Last   int // index one past the last token
}

// Text joins the chunk's token texts with single spaces.
func (c Chunk) Text() string {
	n := 0
	for _, t := range c.Tokens {
		n += len(t.Text) + 1
	}
	b := make([]byte, 0, n)
	for i, t := range c.Tokens {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, t.Text...)
	}
	return string(b)
}

// IsProper reports whether an NP chunk consists of proper nouns (an entity
// mention candidate rather than a concept).
func (c Chunk) IsProper() bool {
	if c.Kind != ChunkNP {
		return false
	}
	sawNNP := false
	for _, t := range c.Tokens {
		switch t.Tag {
		case TagNNP:
			sawNNP = true
		case TagDT, TagCD:
			// Allowed inside proper chunks ("The 2 Guys").
		default:
			return false
		}
	}
	return sawNNP
}

// ChunkSentence groups a tagged sentence into NP, VP, and Other chunks with
// a left-to-right finite-state scan.
func ChunkSentence(ts []TaggedToken) []Chunk {
	var out []Chunk
	i := 0
	for i < len(ts) {
		if start, end, ok := scanNP(ts, i); ok {
			out = append(out, Chunk{Kind: ChunkNP, Tokens: ts[start:end], First: start, Last: end})
			i = end
			continue
		}
		if start, end, ok := scanVP(ts, i); ok {
			out = append(out, Chunk{Kind: ChunkVP, Tokens: ts[start:end], First: start, Last: end})
			i = end
			continue
		}
		out = append(out, Chunk{Kind: ChunkOther, Tokens: ts[i : i+1], First: i, Last: i + 1})
		i++
	}
	return out
}

// scanNP matches DT? (JJ|CD)* (NN|NNS|NNP)+ starting at i.
func scanNP(ts []TaggedToken, i int) (int, int, bool) {
	j := i
	if j < len(ts) && ts[j].Tag == TagDT {
		j++
	}
	for j < len(ts) && (ts[j].Tag == TagJJ || ts[j].Tag == TagCD) {
		j++
	}
	nouns := 0
	for j < len(ts) && isNounTag(ts[j].Tag) {
		j++
		nouns++
	}
	if nouns == 0 {
		return 0, 0, false
	}
	return i, j, true
}

// scanVP matches (MD|RB)* (be|have)* RB* V+ starting at i, requiring at
// least one main verb tag.
func scanVP(ts []TaggedToken, i int) (int, int, bool) {
	j := i
	for j < len(ts) && (ts[j].Tag == TagMD || ts[j].Tag == TagRB) {
		j++
	}
	for j < len(ts) && isVerbTag(ts[j].Tag) {
		j++
	}
	// Allow one trailing adverb then more verbs ("was originally founded").
	for j < len(ts) && ts[j].Tag == TagRB && j+1 < len(ts) && isVerbTag(ts[j+1].Tag) {
		j++
		for j < len(ts) && isVerbTag(ts[j].Tag) {
			j++
		}
	}
	// Require at least one verb token in [i, j).
	hasVerb := false
	for k := i; k < j; k++ {
		if isVerbTag(ts[k].Tag) {
			hasVerb = true
			break
		}
	}
	if !hasVerb {
		return 0, 0, false
	}
	return i, j, true
}

func isNounTag(t string) bool { return t == TagNN || t == TagNNS || t == TagNNP }

func isVerbTag(t string) bool {
	switch t {
	case TagVB, TagVBD, TagVBZ, TagVBP, TagVBG, TagVBN:
		return true
	}
	return false
}
