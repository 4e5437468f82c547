package lang

import (
	"strconv"
	"strings"
)

// Lexer tokenizes JR source. It supports //-to-end-of-line comments and
// /* */ block comments.
type Lexer struct {
	src  string
	pos  int
	line int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1}
}

// Lex tokenizes the entire source, returning the token stream terminated by
// a TokEOF token.
func Lex(src string) ([]Token, error) {
	return appendTokens(nil, src)
}

// appendTokens appends src's token stream to toks. On error it returns
// toks with whatever tokens it appended, for reuse, and the error.
func appendTokens(toks []Token, src string) ([]Token, error) {
	lx := Lexer{src: src, line: 1}
	for {
		t, err := lx.Next()
		if err != nil {
			return toks, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

func (lx *Lexer) peek() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *Lexer) peek2() byte {
	if lx.pos+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
	}
	return c
}

func (lx *Lexer) skipSpace() error {
	for lx.pos < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			start := lx.line
			lx.advance()
			lx.advance()
			for {
				if lx.pos >= len(lx.src) {
					return errf(start, "unterminated block comment")
				}
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					break
				}
				lx.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isAlpha(c byte) bool { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isAlnum(c byte) bool { return isAlpha(c) || isDigit(c) }

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpace(); err != nil {
		return Token{}, err
	}
	line := lx.line
	if lx.pos >= len(lx.src) {
		return Token{Kind: TokEOF, Line: line}, nil
	}
	c := lx.peek()

	// Identifiers and keywords.
	if isAlpha(c) {
		start := lx.pos
		for lx.pos < len(lx.src) && isAlnum(lx.peek()) {
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		if k, ok := keywords[text]; ok {
			return Token{Kind: k, Text: text, Line: line}, nil
		}
		return Token{Kind: TokIdent, Text: text, Line: line}, nil
	}

	// Numbers: decimal ints, hex ints (0x...), floats with '.' or exponent.
	if isDigit(c) {
		start := lx.pos
		if c == '0' && (lx.peek2() == 'x' || lx.peek2() == 'X') {
			lx.advance()
			lx.advance()
			for lx.pos < len(lx.src) && (isDigit(lx.peek()) || (lx.peek()|0x20 >= 'a' && lx.peek()|0x20 <= 'f')) {
				lx.advance()
			}
			v, err := strconv.ParseUint(lx.src[start+2:lx.pos], 16, 64)
			if err != nil {
				return Token{}, errf(line, "bad hex literal %q", lx.src[start:lx.pos])
			}
			return Token{Kind: TokInt, Text: lx.src[start:lx.pos], Int: int64(v), Line: line}, nil
		}
		for lx.pos < len(lx.src) && isDigit(lx.peek()) {
			lx.advance()
		}
		isFloat := false
		if lx.peek() == '.' && isDigit(lx.peek2()) {
			isFloat = true
			lx.advance()
			for lx.pos < len(lx.src) && isDigit(lx.peek()) {
				lx.advance()
			}
		}
		if lx.peek() == 'e' || lx.peek() == 'E' {
			save := lx.pos
			lx.advance()
			if lx.peek() == '+' || lx.peek() == '-' {
				lx.advance()
			}
			if isDigit(lx.peek()) {
				isFloat = true
				for lx.pos < len(lx.src) && isDigit(lx.peek()) {
					lx.advance()
				}
			} else {
				lx.pos = save
			}
		}
		text := lx.src[start:lx.pos]
		if isFloat {
			v, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return Token{}, errf(line, "bad float literal %q", text)
			}
			return Token{Kind: TokFloat, Text: text, Flt: v, Line: line}, nil
		}
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Token{}, errf(line, "bad int literal %q", text)
		}
		return Token{Kind: TokInt, Text: text, Int: v, Line: line}, nil
	}

	// Operators and punctuation, longest match first.
	if lx.pos+1 < len(lx.src) {
		two := lx.src[lx.pos : lx.pos+2]
		if k, ok := twoKinds[two]; ok {
			lx.pos += 2
			return Token{Kind: k, Text: two, Line: line}, nil
		}
	}
	if k := oneKinds[c]; k != 0 {
		lx.advance()
		return Token{Kind: k, Text: lx.src[lx.pos-1 : lx.pos], Line: line}, nil
	}
	return Token{}, errf(line, "unexpected character %q", string(c))
}

// twoKinds maps two-character operators to their token kinds.
var twoKinds = map[string]TokKind{
	"+=": TokPlusEq, "-=": TokMinusEq, "*=": TokStarEq,
	"++": TokPlusPlus, "--": TokMinusMinus,
	"<<": TokShl, ">>": TokShr, "==": TokEq, "!=": TokNe,
	"<=": TokLe, ">=": TokGe, "&&": TokAndAnd, "||": TokOrOr,
}

// oneKinds maps single-character operators and punctuation to their
// token kinds; 0 (TokEOF) marks a byte that starts no token.
var oneKinds = [256]TokKind{
	'(': TokLParen, ')': TokRParen, '{': TokLBrace, '}': TokRBrace,
	'[': TokLBrack, ']': TokRBrack, ',': TokComma, ';': TokSemi, ':': TokColon,
	'=': TokAssign, '+': TokPlus, '-': TokMinus, '*': TokStar, '/': TokSlash,
	'%': TokPercent, '&': TokAmp, '|': TokPipe, '^': TokCaret,
	'<': TokLt, '>': TokGt, '!': TokBang,
}

// stripBOM drops a leading UTF-8 byte-order mark, if present.
func stripBOM(src string) string {
	return strings.TrimPrefix(src, "\ufeff")
}
