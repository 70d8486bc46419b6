package text

import (
	"slices"
	"testing"
)

func chunksOf(sentence string) []Chunk {
	return ChunkSentence(Tag(Tokenize(sentence)))
}

func npTexts(cs []Chunk) []string {
	var out []string
	for _, c := range cs {
		if c.Kind == ChunkNP {
			out = append(out, c.Text())
		}
	}
	return out
}

func vpTexts(cs []Chunk) []string {
	var out []string
	for _, c := range cs {
		if c.Kind == ChunkVP {
			out = append(out, c.Text())
		}
	}
	return out
}

func TestChunkSimpleSVO(t *testing.T) {
	cs := chunksOf("Steve Jobs founded Apple")
	nps := npTexts(cs)
	vps := vpTexts(cs)
	if len(nps) != 2 || nps[0] != "Steve Jobs" || nps[1] != "Apple" {
		t.Errorf("NPs = %v", nps)
	}
	if len(vps) != 1 || vps[0] != "founded" {
		t.Errorf("VPs = %v", vps)
	}
}

func TestChunkDeterminerAndAdjectives(t *testing.T) {
	cs := chunksOf("The famous entrepreneur created a small company")
	nps := npTexts(cs)
	if len(nps) != 2 || nps[0] != "The famous entrepreneur" || nps[1] != "a small company" {
		t.Errorf("NPs = %v", nps)
	}
}

func TestChunkVerbGroup(t *testing.T) {
	cs := chunksOf("Apple was founded by Steve Jobs")
	vps := vpTexts(cs)
	if len(vps) != 1 || vps[0] != "was founded" {
		t.Errorf("VPs = %v", vps)
	}
}

func TestChunkVerbGroupWithAdverb(t *testing.T) {
	cs := chunksOf("The company was originally founded in Cupertino")
	vps := vpTexts(cs)
	if len(vps) != 1 || vps[0] != "was originally founded" {
		t.Errorf("VPs = %v", vps)
	}
}

func TestChunkIsProper(t *testing.T) {
	cs := chunksOf("Steve Jobs met the engineer")
	var proper, common *Chunk
	for i := range cs {
		if cs[i].Kind != ChunkNP {
			continue
		}
		if cs[i].Text() == "Steve Jobs" {
			proper = &cs[i]
		} else {
			common = &cs[i]
		}
	}
	if proper == nil || !proper.IsProper() {
		t.Error("'Steve Jobs' should be a proper NP")
	}
	if common == nil || common.IsProper() {
		t.Error("'the engineer' should not be proper")
	}
}

func TestChunkOffsets(t *testing.T) {
	cs := chunksOf("Steve Jobs founded Apple in 1976")
	for _, c := range cs {
		if c.Last <= c.First {
			t.Errorf("bad chunk bounds %+v", c)
		}
		if len(c.Tokens) != c.Last-c.First {
			t.Errorf("token count mismatch %+v", c)
		}
	}
	// Chunks tile the sentence.
	total := 0
	for _, c := range cs {
		total += len(c.Tokens)
	}
	if total != len(Tokenize("Steve Jobs founded Apple in 1976")) {
		t.Errorf("chunks do not tile sentence: %d tokens covered", total)
	}
}

func TestNounPhrases(t *testing.T) {
	nps := npTexts(chunksOf("Tim Cook leads Apple and Satya Nadella leads Microsoft."))
	if want := []string{"Tim Cook", "Apple", "Satya Nadella", "Microsoft"}; !slices.Equal(nps, want) {
		t.Errorf("noun phrases = %q, want %q", nps, want)
	}
}

func TestChunkKindString(t *testing.T) {
	if ChunkNP.String() != "NP" || ChunkVP.String() != "VP" || ChunkOther.String() != "O" {
		t.Error("ChunkKind strings wrong")
	}
}

func TestChunkEmpty(t *testing.T) {
	if got := ChunkSentence(nil); len(got) != 0 {
		t.Errorf("ChunkSentence(nil) = %v", got)
	}
}
