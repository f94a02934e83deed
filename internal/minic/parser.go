package minic

import (
	"fmt"

	"delinq/internal/obj"
)

// parser reads tokens from the lexer through a three-token window,
// enough for the grammar's two-token lookahead.
type parser struct {
	lex *lexer
	// win is a ring: win[head] is the current token, then the next two.
	win  [3]Token
	head int
	// lexErr is the first lexical error met; from it on the window
	// fills with EOF.
	lexErr error
	// consumed counts the tokens next has returned.
	consumed int
	depth    int
	structs  map[string]*obj.Type
}

// maxParseDepth bounds recursion in the recursive-descent parser so
// pathological nesting ("((((..." or deeply nested blocks) is rejected
// with a diagnostic instead of exhausting the goroutine stack.
const maxParseDepth = 256

// Parse builds the AST of one translation unit.
func Parse(src string) (*Program, error) {
	prog, _, err := parse(src)
	return prog, err
}

// parse is Parse that also returns how many tokens the program has. A
// lexical error anywhere in the source wins over a parse error, as if
// the whole source were lexed first.
func parse(src string) (*Program, int, error) {
	p := &parser{lex: newLexer(src), structs: map[string]*obj.Type{}}
	for i := range p.win {
		p.win[i] = p.scan()
	}
	prog := &Program{Structs: p.structs}
	for p.peek().Kind != EOF {
		if err := p.topLevel(prog); err != nil {
			// Lex the rest of the source for an error that outranks
			// this one.
			for p.lexErr == nil && p.scan().Kind != EOF {
			}
			if p.lexErr != nil {
				return nil, 0, p.lexErr
			}
			return nil, 0, err
		}
	}
	if p.lexErr != nil {
		return nil, 0, p.lexErr
	}
	return prog, p.consumed, nil
}

// scan lexes one token, recording the first lexical error and
// answering EOF from then on.
func (p *parser) scan() Token {
	if p.lexErr == nil {
		t, err := p.lex.next()
		if err == nil {
			return t
		}
		p.lexErr = err
	}
	return Token{Kind: EOF, Line: p.lex.line}
}

func (p *parser) peek() Token       { return p.win[p.head] }
func (p *parser) at(k TokKind) bool { return p.win[p.head].Kind == k }

// peekN looks ahead n ≤ 2 tokens; past the end of the source every
// token is EOF.
func (p *parser) peekN(n int) Token { return p.win[(p.head+n)%3] }

func (p *parser) enter() error {
	p.depth++
	if p.depth > maxParseDepth {
		return p.errf("nesting too deep (limit %d)", maxParseDepth)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }
func (p *parser) next() Token {
	t := p.win[p.head]
	if t.Kind != EOF {
		p.win[p.head] = p.scan()
		p.head = (p.head + 1) % 3
		p.consumed++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return &Error{Line: p.peek().Line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k TokKind) (Token, error) {
	if !p.at(k) {
		return Token{}, p.errf("expected %v, found %v %q", k, p.peek().Kind, p.peek().Text)
	}
	return p.next(), nil
}

// isTypeStart reports whether the current token begins a type.
func (p *parser) isTypeStart() bool {
	switch p.peek().Kind {
	case KwInt, KwChar, KwFloat, KwVoid, KwStruct:
		return true
	}
	return false
}

// parseType parses a base type plus pointer stars.
func (p *parser) parseType() (*obj.Type, error) {
	var base *obj.Type
	switch p.peek().Kind {
	case KwInt:
		p.next()
		base = obj.TypeInt
	case KwChar:
		p.next()
		base = obj.TypeChar
	case KwFloat:
		p.next()
		base = obj.TypeFloat
	case KwVoid:
		p.next()
		base = obj.TypeVoid
	case KwStruct:
		p.next()
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		st, ok := p.structs[name.Text]
		if !ok {
			// Forward reference: create the shell now.
			st = &obj.Type{Kind: obj.KindStruct, Name: name.Text}
			p.structs[name.Text] = st
		}
		base = st
	default:
		return nil, p.errf("expected type, found %q", p.peek().Text)
	}
	for p.at(Star) {
		p.next()
		base = obj.PointerTo(base)
	}
	return base, nil
}

// arraySuffix parses zero or more [N] suffixes onto base.
func (p *parser) arraySuffix(base *obj.Type) (*obj.Type, error) {
	var dims []int
	for p.at(LBrack) {
		p.next()
		n, err := p.expect(INTLIT)
		if err != nil {
			return nil, err
		}
		if n.Int <= 0 {
			return nil, p.errf("array length must be positive")
		}
		if _, err := p.expect(RBrack); err != nil {
			return nil, err
		}
		dims = append(dims, int(n.Int))
	}
	for i := len(dims) - 1; i >= 0; i-- {
		base = obj.ArrayOf(dims[i], base)
	}
	return base, nil
}

func (p *parser) topLevel(prog *Program) error {
	// struct definition?
	if p.at(KwStruct) && p.peekN(1).Kind == IDENT && p.peekN(2).Kind == LBrace {
		return p.structDef()
	}
	ty, err := p.parseType()
	if err != nil {
		return err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return err
	}
	if p.at(LParen) {
		fn, err := p.funcDecl(ty, name)
		if err != nil {
			return err
		}
		prog.Funcs = append(prog.Funcs, fn)
		return nil
	}
	// Global variable(s).
	for {
		gty, err := p.arraySuffix(ty)
		if err != nil {
			return err
		}
		g := &GlobalDecl{Name: name.Text, Ty: gty, Ln: name.Line}
		if p.at(Assign) {
			p.next()
			switch {
			case p.at(INTLIT) || p.at(CHARLIT):
				v := p.next().Int
				g.InitInt = &v
			case p.at(Minus) && p.peekN(1).Kind == INTLIT:
				p.next()
				v := -p.next().Int
				g.InitInt = &v
			case p.at(FLOATLIT):
				v := p.next().Flt
				g.InitFloat = &v
			case p.at(Minus) && p.peekN(1).Kind == FLOATLIT:
				p.next()
				v := -p.next().Flt
				g.InitFloat = &v
			default:
				return p.errf("global initialiser must be a constant")
			}
		}
		prog.Globals = append(prog.Globals, g)
		if p.at(Comma) {
			p.next()
			name, err = p.expect(IDENT)
			if err != nil {
				return err
			}
			continue
		}
		_, err = p.expect(Semi)
		return err
	}
}

func (p *parser) structDef() error {
	p.next() // struct
	name := p.next()
	st, ok := p.structs[name.Text]
	if !ok {
		st = &obj.Type{Kind: obj.KindStruct, Name: name.Text}
		p.structs[name.Text] = st
	}
	if len(st.Fields) > 0 {
		return p.errf("struct %s redefined", name.Text)
	}
	if _, err := p.expect(LBrace); err != nil {
		return err
	}
	off := 0
	for !p.at(RBrace) {
		fty, err := p.parseType()
		if err != nil {
			return err
		}
		for {
			fname, err := p.expect(IDENT)
			if err != nil {
				return err
			}
			ffty, err := p.arraySuffix(fty)
			if err != nil {
				return err
			}
			// A struct may only embed complete struct types by value.
			// The struct being defined is itself incomplete until its
			// closing brace, even once fields have been appended:
			// accepting it here would build a type of infinite size.
			elem := ffty
			for elem.Kind == obj.KindArray {
				elem = elem.Elem
			}
			if elem.Kind == obj.KindStruct && (elem == st || len(elem.Fields) == 0) {
				return p.errf("field %s has incomplete struct type", fname.Text)
			}
			align := 4
			if ffty.Kind == obj.KindChar {
				align = 1
			}
			off = (off + align - 1) &^ (align - 1)
			st.Fields = append(st.Fields, obj.Field{Name: fname.Text, Offset: off, Type: ffty})
			off += ffty.Size()
			if p.at(Comma) {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(Semi); err != nil {
			return err
		}
	}
	p.next() // }
	if _, err := p.expect(Semi); err != nil {
		return err
	}
	return nil
}

func (p *parser) funcDecl(ret *obj.Type, name Token) (*FuncDecl, error) {
	fn := &FuncDecl{Name: name.Text, Ret: ret, Ln: name.Line}
	p.next() // (
	if p.at(KwVoid) && p.peekN(1).Kind == RParen {
		p.next()
	}
	for !p.at(RParen) {
		pty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		pname, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		fn.Params = append(fn.Params, Param{Name: pname.Text, Ty: pty})
		if p.at(Comma) {
			p.next()
		}
	}
	p.next() // )
	if len(fn.Params) > 4 {
		return nil, p.errf("function %s has more than 4 parameters", fn.Name)
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *parser) block() (*Block, error) {
	if _, err := p.expect(LBrace); err != nil {
		return nil, err
	}
	b := &Block{stmtBase: stmtBase{Ln: p.peek().Line}}
	for !p.at(RBrace) {
		if p.at(EOF) {
			return nil, p.errf("unexpected EOF in block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next()
	return b, nil
}

func (p *parser) stmt() (Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	ln := p.peek().Line
	switch {
	case p.at(LBrace):
		return p.block()

	case p.isTypeStart():
		return p.declStmt(true)

	case p.at(KwIf):
		p.next()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		then, err := p.stmt()
		if err != nil {
			return nil, err
		}
		st := &IfStmt{stmtBase: stmtBase{Ln: ln}, Cond: cond, Then: then}
		if p.at(KwElse) {
			p.next()
			els, err := p.stmt()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
		return st, nil

	case p.at(KwWhile):
		p.next()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{stmtBase: stmtBase{Ln: ln}, Cond: cond, Body: body}, nil

	case p.at(KwFor):
		p.next()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		st := &ForStmt{stmtBase: stmtBase{Ln: ln}}
		if !p.at(Semi) {
			if p.isTypeStart() {
				init, err := p.declStmt(false)
				if err != nil {
					return nil, err
				}
				st.Init = init
			} else {
				x, err := p.expr()
				if err != nil {
					return nil, err
				}
				st.Init = &ExprStmt{stmtBase: stmtBase{Ln: ln}, X: x}
			}
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		if !p.at(Semi) {
			cond, err := p.expr()
			if err != nil {
				return nil, err
			}
			st.Cond = cond
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		if !p.at(RParen) {
			post, err := p.expr()
			if err != nil {
				return nil, err
			}
			st.Post = post
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		st.Body = body
		return st, nil

	case p.at(KwReturn):
		p.next()
		st := &ReturnStmt{stmtBase: stmtBase{Ln: ln}}
		if !p.at(Semi) {
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			st.X = x
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return st, nil

	case p.at(KwBreak):
		p.next()
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &BreakStmt{stmtBase{Ln: ln}}, nil

	case p.at(KwContinue):
		p.next()
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &ContinueStmt{stmtBase{Ln: ln}}, nil

	default:
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &ExprStmt{stmtBase: stmtBase{Ln: ln}, X: x}, nil
	}
}

// declStmt parses "type name [dims] [= init]"; when consumeSemi it also
// eats the trailing semicolon.
func (p *parser) declStmt(consumeSemi bool) (Stmt, error) {
	ln := p.peek().Line
	ty, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	ty, err = p.arraySuffix(ty)
	if err != nil {
		return nil, err
	}
	st := &DeclStmt{stmtBase: stmtBase{Ln: ln}, Name: name.Text, Ty: ty}
	if p.at(Assign) {
		p.next()
		init, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		st.Init = init
	}
	if consumeSemi {
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// --- expressions (precedence climbing) --------------------------------------

func (p *parser) expr() (Expr, error) { return p.assignExpr() }

func (p *parser) assignExpr() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	lhs, err := p.orExpr()
	if err != nil {
		return nil, err
	}
	switch p.peek().Kind {
	case Assign, AddAssign, SubAssign, MulAssign, DivAssign:
		op := p.next()
		rhs, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		return &AssignExpr{exprBase: exprBase{Ln: op.Line}, Op: op.Kind, LHS: lhs, RHS: rhs}, nil
	}
	return lhs, nil
}

// binLevels lists binary operator precedence from loosest to tightest.
var binLevels = [][]TokKind{
	{OrOr},
	{AndAnd},
	{Pipe},
	{Caret},
	{Amp},
	{Eq, Ne},
	{Lt, Gt, Le, Ge},
	{Shl, Shr},
	{Plus, Minus},
	{Star, Slash, Percent},
}

func (p *parser) orExpr() (Expr, error) { return p.binExpr(0) }

func (p *parser) binExpr(level int) (Expr, error) {
	if level >= len(binLevels) {
		return p.unaryExpr()
	}
	lhs, err := p.binExpr(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, k := range binLevels[level] {
			if p.at(k) {
				op := p.next()
				rhs, err := p.binExpr(level + 1)
				if err != nil {
					return nil, err
				}
				lhs = &Binary{exprBase: exprBase{Ln: op.Line}, Op: op.Kind, X: lhs, Y: rhs}
				matched = true
				break
			}
		}
		if !matched {
			return lhs, nil
		}
	}
}

func (p *parser) unaryExpr() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	ln := p.peek().Line
	switch p.peek().Kind {
	case Minus, Not, Tilde, Star, Amp:
		op := p.next()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &Unary{exprBase: exprBase{Ln: ln}, Op: op.Kind, X: x}, nil
	case Inc, Dec:
		op := p.next()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &Unary{exprBase: exprBase{Ln: ln}, Op: op.Kind, X: x}, nil
	case KwSizeof:
		p.next()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return &SizeofExpr{exprBase: exprBase{Ln: ln}, Of: ty}, nil
	}
	return p.postfixExpr()
}

func (p *parser) postfixExpr() (Expr, error) {
	x, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		ln := p.peek().Line
		switch p.peek().Kind {
		case LBrack:
			p.next()
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBrack); err != nil {
				return nil, err
			}
			x = &Index{exprBase: exprBase{Ln: ln}, X: x, I: idx}
		case Dot, Arrow:
			arrow := p.next().Kind == Arrow
			name, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			x = &Member{exprBase: exprBase{Ln: ln}, X: x, Name: name.Text, Arrow: arrow}
		case Inc, Dec:
			op := p.next()
			x = &Unary{exprBase: exprBase{Ln: ln}, Op: op.Kind, X: x, Postfix: true}
		default:
			return x, nil
		}
	}
}

func (p *parser) primaryExpr() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case INTLIT, CHARLIT:
		p.next()
		return &IntLit{exprBase: exprBase{Ln: t.Line}, Val: t.Int}, nil
	case FLOATLIT:
		p.next()
		return &FloatLit{exprBase: exprBase{Ln: t.Line}, Val: t.Flt}, nil
	case STRLIT:
		p.next()
		return &StrLit{exprBase: exprBase{Ln: t.Line}, Val: t.Str}, nil
	case IDENT:
		p.next()
		if p.at(LParen) {
			p.next()
			call := &Call{exprBase: exprBase{Ln: t.Line}, Name: t.Text}
			for !p.at(RParen) {
				arg, err := p.assignExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, arg)
				if p.at(Comma) {
					p.next()
				}
			}
			p.next()
			return call, nil
		}
		return &Ident{exprBase: exprBase{Ln: t.Line}, Name: t.Text}, nil
	case LParen:
		p.next()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, p.errf("unexpected token %q in expression", t.Text)
}
