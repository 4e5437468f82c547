package lang_test

import (
	"testing"

	"jrpm/internal/corpus"
	"jrpm/internal/lang"
	"jrpm/internal/workloads"
)

// TestLexerAllocsPerToken is the lexer's allocation gate: draining a
// Lexer allocates nothing, whatever the token, so lexing cost never
// scales allocations with program size.
func TestLexerAllocsPerToken(t *testing.T) {
	_, progs, err := corpus.Compile(corpus.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]string{"corpus/" + progs[0].SHA256[:12]: progs[0].Source}
	for _, w := range workloads.All() {
		srcs["kernel/"+w.Meta.Name] = w.Source
	}
	for name, src := range srcs {
		tokens := 0
		allocs := testing.AllocsPerRun(10, func() {
			tokens = 0
			lx := lang.NewLexer(src)
			for {
				tok, err := lx.Next()
				if err != nil {
					t.Fatal(err)
				}
				if tok.Kind == lang.TokEOF {
					break
				}
				tokens++
			}
		})
		if tokens == 0 {
			t.Fatalf("%s: no tokens", name)
		}
		if allocs != 0 {
			t.Errorf("%s: %.0f allocations draining %d tokens, want 0", name, allocs, tokens)
		}
	}
}
