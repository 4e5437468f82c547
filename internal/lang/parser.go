package lang

import "jrpm/internal/freelist"

// Parser is a recursive-descent parser for JR with precedence-climbing
// expression parsing.
type Parser struct {
	toks []Token
	pos  int
}

// Parse parses a JR source file. It lexes into a token slice reused
// from call to call; the AST holds no reference to it.
func Parse(src string) (*File, error) {
	tb := tokBufs.Get()
	defer tb.release()
	var err error
	if tb.toks, err = appendTokens(tb.toks[:0], stripBOM(src)); err != nil {
		return nil, err
	}
	p := &Parser{toks: tb.toks}
	return p.file()
}

// tokBuf is Parse's reusable token slice.
type tokBuf struct{ toks []Token }

// tokBufs holds idle token slices.
var tokBufs freelist.List[tokBuf]

// tokKeep bounds the tokens an idle tokBuf may keep (48 bytes each); a
// slice grown by an unusually long source is left to the collector.
const tokKeep = 1 << 14

// release clears the tokens, so the idle slice pins no source text, and
// gives the slice back to the free list.
func (tb *tokBuf) release() {
	if cap(tb.toks) > tokKeep {
		return
	}
	clear(tb.toks)
	tokBufs.Put(tb)
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *Parser) at(k TokKind) bool { return p.cur().Kind == k }

func (p *Parser) accept(k TokKind) bool {
	if p.at(k) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(k TokKind) (Token, error) {
	if p.at(k) {
		return p.next(), nil
	}
	t := p.cur()
	return t, errf(t.Line, "expected %s, found %s", k, describe(t))
}

func describe(t Token) string {
	switch t.Kind {
	case TokIdent, TokInt, TokFloat:
		return "'" + t.Text + "'"
	case TokEOF:
		return "end of file"
	default:
		return "'" + t.Kind.String() + "'"
	}
}

func (p *Parser) file() (*File, error) {
	f := &File{}
	for !p.at(TokEOF) {
		switch p.cur().Kind {
		case TokGlobal:
			g, err := p.globalDecl()
			if err != nil {
				return nil, err
			}
			f.Globals = append(f.Globals, g)
		case TokFunc:
			fn, err := p.funcDecl()
			if err != nil {
				return nil, err
			}
			f.Funcs = append(f.Funcs, fn)
		default:
			return nil, errf(p.cur().Line, "expected 'global' or 'func' at top level, found %s", describe(p.cur()))
		}
	}
	return f, nil
}

func (p *Parser) globalDecl() (*GlobalDecl, error) {
	g := &GlobalDecl{Line: p.next().Line} // 'global'
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	g.Name = name.Text
	if _, err := p.expect(TokColon); err != nil {
		return nil, err
	}
	t, err := p.parseType()
	if err != nil {
		return nil, err
	}
	if !t.IsArr() {
		return nil, errf(g.Line, "global %s must be an array type (harness-bound), got %s", g.Name, t)
	}
	g.Type = t
	_, err = p.expect(TokSemi)
	return g, err
}

func (p *Parser) parseType() (Type, error) {
	var base Type
	switch p.cur().Kind {
	case TokIntType:
		base = TypeInt
	case TokFloatType:
		base = TypeFloat
	case TokBoolType:
		base = TypeBool
	default:
		return TypeVoid, errf(p.cur().Line, "expected type, found %s", describe(p.cur()))
	}
	p.next()
	if p.accept(TokLBrack) {
		if _, err := p.expect(TokRBrack); err != nil {
			return TypeVoid, err
		}
		switch base {
		case TypeInt:
			return TypeIntArr, nil
		case TypeFloat:
			return TypeFloatArr, nil
		default:
			return TypeVoid, errf(p.cur().Line, "bool arrays are not supported")
		}
	}
	return base, nil
}

func (p *Parser) funcDecl() (*FuncDecl, error) {
	fn := &FuncDecl{Line: p.next().Line, Result: TypeVoid} // 'func'
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	fn.Name = name.Text
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	for !p.at(TokRParen) {
		if len(fn.Params) > 0 {
			if _, err := p.expect(TokComma); err != nil {
				return nil, err
			}
		}
		pn, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokColon); err != nil {
			return nil, err
		}
		pt, err := p.parseType()
		if err != nil {
			return nil, err
		}
		fn.Params = append(fn.Params, Param{Name: pn.Text, Type: pt, Line: pn.Line})
	}
	p.next() // ')'
	if p.accept(TokColon) {
		rt, err := p.parseType()
		if err != nil {
			return nil, err
		}
		fn.Result = rt
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *Parser) block() (*BlockStmt, error) {
	lb, err := p.expect(TokLBrace)
	if err != nil {
		return nil, err
	}
	b := &BlockStmt{Line: lb.Line}
	for !p.at(TokRBrace) {
		if p.at(TokEOF) {
			return nil, errf(lb.Line, "unterminated block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next() // '}'
	return b, nil
}

func (p *Parser) stmt() (Stmt, error) {
	switch p.cur().Kind {
	case TokLBrace:
		return p.block()
	case TokVar:
		s, err := p.varStmt()
		if err != nil {
			return nil, err
		}
		_, err = p.expect(TokSemi)
		return s, err
	case TokIf:
		return p.ifStmt()
	case TokWhile:
		t := p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body, Line: t.Line}, nil
	case TokDo:
		t := p.next()
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokWhile); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &DoWhileStmt{Body: body, Cond: cond, Line: t.Line}, nil
	case TokFor:
		return p.forStmt()
	case TokReturn:
		t := p.next()
		s := &ReturnStmt{Line: t.Line}
		if !p.at(TokSemi) {
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			s.Val = v
		}
		_, err := p.expect(TokSemi)
		return s, err
	case TokBreak:
		t := p.next()
		_, err := p.expect(TokSemi)
		return &BreakStmt{Line: t.Line}, err
	case TokContinue:
		t := p.next()
		_, err := p.expect(TokSemi)
		return &ContinueStmt{Line: t.Line}, err
	case TokPrint:
		t := p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &PrintStmt{Val: v, Line: t.Line}, nil
	default:
		s, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		_, err = p.expect(TokSemi)
		return s, err
	}
}

func (p *Parser) varStmt() (*VarStmt, error) {
	t := p.next() // 'var'
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokColon); err != nil {
		return nil, err
	}
	vt, err := p.parseType()
	if err != nil {
		return nil, err
	}
	s := &VarStmt{Name: name.Text, Type: vt, Line: t.Line}
	if p.accept(TokAssign) {
		init, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Init = init
	}
	return s, nil
}

// simpleStmt parses an assignment, ++/--, or expression statement, without
// consuming the trailing semicolon (so it can serve as a for-clause).
func (p *Parser) simpleStmt() (Stmt, error) {
	line := p.cur().Line
	lhs, err := p.expr()
	if err != nil {
		return nil, err
	}
	switch p.cur().Kind {
	case TokAssign, TokPlusEq, TokMinusEq, TokStarEq:
		op := p.next().Kind
		rhs, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{LHS: lhs, Op: op, RHS: rhs, Line: line}, nil
	case TokPlusPlus, TokMinusMinus:
		op := p.next().Kind
		return &AssignStmt{LHS: lhs, Op: op, Line: line}, nil
	default:
		return &ExprStmt{X: lhs, Line: line}, nil
	}
}

func (p *Parser) ifStmt() (Stmt, error) {
	t := p.next() // 'if'
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	then, err := p.block()
	if err != nil {
		return nil, err
	}
	s := &IfStmt{Cond: cond, Then: then, Line: t.Line}
	if p.accept(TokElse) {
		if p.at(TokIf) {
			e, err := p.ifStmt()
			if err != nil {
				return nil, err
			}
			s.Else = e
		} else {
			e, err := p.block()
			if err != nil {
				return nil, err
			}
			s.Else = e
		}
	}
	return s, nil
}

func (p *Parser) forStmt() (Stmt, error) {
	t := p.next() // 'for'
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	s := &ForStmt{Line: t.Line}
	if !p.at(TokSemi) {
		if p.at(TokVar) {
			init, err := p.varStmt()
			if err != nil {
				return nil, err
			}
			s.Init = init
		} else {
			init, err := p.simpleStmt()
			if err != nil {
				return nil, err
			}
			s.Init = init
		}
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	if !p.at(TokSemi) {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Cond = cond
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	if !p.at(TokRParen) {
		post, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		s.Post = post
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	s.Body = body
	return s, nil
}

// Binary operator precedence, loosest first.
var binPrec = map[TokKind]int{
	TokOrOr:   1,
	TokAndAnd: 2,
	TokPipe:   3,
	TokCaret:  4,
	TokAmp:    5,
	TokEq:     6, TokNe: 6,
	TokLt: 7, TokLe: 7, TokGt: 7, TokGe: 7,
	TokShl: 8, TokShr: 8,
	TokPlus: 9, TokMinus: 9,
	TokStar: 10, TokSlash: 10, TokPercent: 10,
}

func (p *Parser) expr() (Expr, error) { return p.binExpr(1) }

func (p *Parser) binExpr(minPrec int) (Expr, error) {
	lhs, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		prec, ok := binPrec[p.cur().Kind]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		op := p.next()
		rhs, err := p.binExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinExpr{Op: op.Kind, X: lhs, Y: rhs, Line: op.Line}
	}
}

func (p *Parser) unary() (Expr, error) {
	switch p.cur().Kind {
	case TokMinus:
		t := p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnExpr{Op: TokMinus, X: x, Line: t.Line}, nil
	case TokBang:
		t := p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnExpr{Op: TokBang, X: x, Line: t.Line}, nil
	}
	return p.postfix()
}

func (p *Parser) postfix() (Expr, error) {
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	for p.at(TokLBrack) {
		t := p.next()
		idx, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRBrack); err != nil {
			return nil, err
		}
		x = &IndexExpr{Arr: x, Idx: idx, Line: t.Line}
	}
	return x, nil
}

func (p *Parser) primary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokInt:
		p.next()
		return &IntLit{Val: t.Int, Line: t.Line}, nil
	case TokFloat:
		p.next()
		return &FloatLit{Val: t.Flt, Line: t.Line}, nil
	case TokTrue:
		p.next()
		return &BoolLit{Val: true, Line: t.Line}, nil
	case TokFalse:
		p.next()
		return &BoolLit{Val: false, Line: t.Line}, nil
	case TokLParen:
		p.next()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		_, err = p.expect(TokRParen)
		return x, err
	case TokIntType, TokFloatType:
		// Casts: int(x), float(x).
		p.next()
		name := "int"
		if t.Kind == TokFloatType {
			name = "float"
		}
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return &CallExpr{Name: name, Args: []Expr{x}, Line: t.Line, Builtin: name}, nil
	case TokIdent:
		p.next()
		if p.at(TokLParen) {
			p.next()
			call := &CallExpr{Name: t.Text, Line: t.Line}
			for !p.at(TokRParen) {
				if len(call.Args) > 0 {
					if _, err := p.expect(TokComma); err != nil {
						return nil, err
					}
				}
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
			}
			p.next() // ')'
			return call, nil
		}
		return &IdentExpr{Name: t.Text, Line: t.Line}, nil
	default:
		return nil, errf(t.Line, "expected expression, found %s", describe(t))
	}
}
