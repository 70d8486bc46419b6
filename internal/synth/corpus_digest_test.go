package synth

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"
)

// corpusDigest hashes every article's text and infobox (keys sorted), in
// article order.
func corpusDigest(c *Corpus) string {
	h := sha256.New()
	for _, a := range c.Articles {
		fmt.Fprintf(h, "%s\x00%s\x00", a.ID, a.Text)
		keys := make([]string, 0, len(a.Infobox))
		for k := range a.Infobox {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%s=%s\x00", k, a.Infobox[k])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The corpus is a function of (config, seed) that every benchmark number
// downstream depends on: the RNG stream is consumed per rendered fact, so
// any change to the order facts reach an article changes every later
// byte. The digests were computed at the commit before factsAbout became
// an index lookup.
func TestBuildCorpusDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		seed int64
		want string
	}{
		{"small/7", smallConfig(), 7, "11d6fdd0dc62df66054d56c3dcaa8765910eb4de54793bf89d2ae9ee641d62bf"},
		{"default x2/1", DefaultConfig().Scaled(2), 1, "e649ae05b1c8a264d93dfb299673d37d168985079dfd4d2fbfa53a399401454f"},
	} {
		w := Generate(tc.cfg, tc.seed)
		got := corpusDigest(BuildCorpus(w, DefaultCorpusOptions()))
		if got != tc.want {
			t.Errorf("%s: corpus digest = %s, want %s", tc.name, got, tc.want)
		}
	}
}
