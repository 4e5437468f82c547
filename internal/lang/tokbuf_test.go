package lang

import "testing"

// TestParseReleasesTokens: Parse gives its token slice back to the free
// list cleared, on success and on a lexing error, so an idle slice pins
// no source text.
func TestParseReleasesTokens(t *testing.T) {
	for _, src := range []string{
		"global a: int[];\nfunc main() { a[0] = a[1] + 2; }",
		"func main() { x = 1; @ }",
	} {
		Parse(src)
		tb := tokBufs.Get()
		if cap(tb.toks) == 0 {
			t.Fatalf("%q: no token slice was released", src)
		}
		for i, tok := range tb.toks[:cap(tb.toks)] {
			if tok != (Token{}) {
				t.Fatalf("%q: released token %d is %+v, want zero", src, i, tok)
			}
		}
		tokBufs.Put(tb)
	}
}
