// Package minic implements a small C-subset compiler targeting the
// repository's MIPS-like ISA: lexer, recursive-descent parser, type
// checker, and a code generator with an unoptimised mode (every variable
// lives in its stack slot, the idiom the paper's heuristic was trained
// on) and an optimising mode (scalar locals promoted to callee-saved
// registers, as "gcc -O" does).
//
// Supported language: int/char/float scalars, pointers, fixed-size
// arrays, structs; functions with up to four parameters; if/else, while,
// for, break/continue, return; the usual C expression operators; string
// literals; and builtins malloc, free, sbrk, print_int, print_char,
// print_str, print_float, arg, nargs.
package minic

import (
	"fmt"
	"strconv"
	"strings"
)

// TokKind enumerates token kinds.
type TokKind int

const (
	EOF TokKind = iota
	IDENT
	INTLIT
	FLOATLIT
	CHARLIT
	STRLIT

	// Keywords.
	KwInt
	KwChar
	KwFloat
	KwVoid
	KwStruct
	KwIf
	KwElse
	KwWhile
	KwFor
	KwReturn
	KwBreak
	KwContinue
	KwSizeof

	// Punctuation and operators.
	LParen
	RParen
	LBrace
	RBrace
	LBrack
	RBrack
	Semi
	Comma
	Dot
	Arrow
	Assign
	AddAssign
	SubAssign
	MulAssign
	DivAssign
	Plus
	Minus
	Star
	Slash
	Percent
	Amp
	Pipe
	Caret
	Tilde
	Not
	AndAnd
	OrOr
	Eq
	Ne
	Lt
	Gt
	Le
	Ge
	Shl
	Shr
	Inc
	Dec
)

var kindNames = map[TokKind]string{
	EOF: "EOF", IDENT: "identifier", INTLIT: "integer", FLOATLIT: "float",
	CHARLIT: "char", STRLIT: "string",
	KwInt: "int", KwChar: "char", KwFloat: "float", KwVoid: "void",
	KwStruct: "struct", KwIf: "if", KwElse: "else", KwWhile: "while",
	KwFor: "for", KwReturn: "return", KwBreak: "break",
	KwContinue: "continue", KwSizeof: "sizeof",
	LParen: "(", RParen: ")", LBrace: "{", RBrace: "}",
	LBrack: "[", RBrack: "]", Semi: ";", Comma: ",", Dot: ".", Arrow: "->",
	Assign: "=", AddAssign: "+=", SubAssign: "-=", MulAssign: "*=",
	DivAssign: "/=", Plus: "+", Minus: "-", Star: "*", Slash: "/",
	Percent: "%", Amp: "&", Pipe: "|", Caret: "^", Tilde: "~", Not: "!",
	AndAnd: "&&", OrOr: "||", Eq: "==", Ne: "!=", Lt: "<", Gt: ">",
	Le: "<=", Ge: ">=", Shl: "<<", Shr: ">>", Inc: "++", Dec: "--",
}

// String names the token kind.
func (k TokKind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("tok(%d)", int(k))
}

var keywords = map[string]TokKind{
	"int": KwInt, "char": KwChar, "float": KwFloat, "void": KwVoid,
	"struct": KwStruct, "if": KwIf, "else": KwElse, "while": KwWhile,
	"for": KwFor, "return": KwReturn, "break": KwBreak,
	"continue": KwContinue, "sizeof": KwSizeof,
}

// twoCharOps and oneCharOps map operator spellings to token kinds; the
// lexer tries the two-character form first (longest match).
var twoCharOps = map[string]TokKind{
	"->": Arrow, "+=": AddAssign, "-=": SubAssign, "*=": MulAssign,
	"/=": DivAssign, "&&": AndAnd, "||": OrOr, "==": Eq, "!=": Ne,
	"<=": Le, ">=": Ge, "<<": Shl, ">>": Shr, "++": Inc, "--": Dec,
}

var oneCharOps = map[byte]TokKind{
	'(': LParen, ')': RParen, '{': LBrace, '}': RBrace,
	'[': LBrack, ']': RBrack, ';': Semi, ',': Comma, '.': Dot,
	'=': Assign, '+': Plus, '-': Minus, '*': Star, '/': Slash,
	'%': Percent, '&': Amp, '|': Pipe, '^': Caret, '~': Tilde,
	'!': Not, '<': Lt, '>': Gt,
}

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Text string
	Int  int64
	Flt  float64
	Str  string
	Line int
}

// Error is a compilation diagnostic.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("minic: line %d: %s", e.Line, e.Msg) }

type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

func (l *lexer) errf(format string, args ...any) error {
	return &Error{Line: l.line, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) at(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isAlpha(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func (l *lexer) skipSpace() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.at(1) == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.at(1) == '*':
			l.pos += 2
			for {
				if l.pos >= len(l.src) {
					return l.errf("unterminated block comment")
				}
				if l.src[l.pos] == '\n' {
					l.line++
				}
				if l.src[l.pos] == '*' && l.at(1) == '/' {
					l.pos += 2
					break
				}
				l.pos++
			}
		default:
			return nil
		}
	}
	return nil
}

// next scans one token.
func (l *lexer) next() (Token, error) {
	if err := l.skipSpace(); err != nil {
		return Token{}, err
	}
	t := Token{Line: l.line}
	if l.pos >= len(l.src) {
		t.Kind = EOF
		return t, nil
	}
	c := l.src[l.pos]
	start := l.pos

	switch {
	case isAlpha(c):
		for l.pos < len(l.src) && (isAlpha(l.src[l.pos]) || isDigit(l.src[l.pos])) {
			l.pos++
		}
		t.Text = l.src[start:l.pos]
		if kw, ok := keywords[t.Text]; ok {
			t.Kind = kw
		} else {
			t.Kind = IDENT
		}
		return t, nil

	case isDigit(c):
		isFloat := false
		if c == '0' && (l.at(1) == 'x' || l.at(1) == 'X') {
			l.pos += 2
			for l.pos < len(l.src) && isHex(l.src[l.pos]) {
				l.pos++
			}
			t.Text = l.src[start:l.pos]
			v, err := strconv.ParseInt(t.Text, 0, 64)
			if err != nil {
				return t, l.errf("bad hex literal %q", t.Text)
			}
			t.Kind, t.Int = INTLIT, v
			return t, nil
		}
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
		if l.peekByte() == '.' && isDigit(l.at(1)) {
			isFloat = true
			l.pos++
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
		}
		if l.peekByte() == 'e' || l.peekByte() == 'E' {
			isFloat = true
			l.pos++
			if l.peekByte() == '+' || l.peekByte() == '-' {
				l.pos++
			}
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
		}
		t.Text = l.src[start:l.pos]
		if isFloat {
			v, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return t, l.errf("bad float literal %q", t.Text)
			}
			t.Kind, t.Flt = FLOATLIT, v
		} else {
			v, err := strconv.ParseInt(t.Text, 10, 64)
			if err != nil {
				return t, l.errf("bad integer literal %q", t.Text)
			}
			t.Kind, t.Int = INTLIT, v
		}
		return t, nil

	case c == '\'':
		l.pos++
		var v byte
		if l.peekByte() == '\\' {
			l.pos++
			e, err := unescape(l.peekByte())
			if err != nil {
				return t, l.errf("%v", err)
			}
			v = e
			l.pos++
		} else if l.pos < len(l.src) {
			v = l.src[l.pos]
			l.pos++
		}
		if l.peekByte() != '\'' {
			return t, l.errf("unterminated char literal")
		}
		l.pos++
		t.Kind, t.Int = CHARLIT, int64(v)
		return t, nil

	case c == '"':
		l.pos++
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) || l.src[l.pos] == '\n' {
				return t, l.errf("unterminated string literal")
			}
			ch := l.src[l.pos]
			if ch == '"' {
				l.pos++
				break
			}
			if ch == '\\' {
				l.pos++
				e, err := unescape(l.peekByte())
				if err != nil {
					return t, l.errf("%v", err)
				}
				sb.WriteByte(e)
				l.pos++
				continue
			}
			sb.WriteByte(ch)
			l.pos++
		}
		t.Kind, t.Str = STRLIT, sb.String()
		return t, nil
	}

	// Operators, longest match first.
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	if k, ok := twoCharOps[two]; ok {
		l.pos += 2
		t.Kind, t.Text = k, two
		return t, nil
	}
	if k, ok := oneCharOps[c]; ok {
		l.pos++
		t.Kind, t.Text = k, string(c)
		return t, nil
	}
	return t, l.errf("unexpected character %q", c)
}

func isHex(c byte) bool {
	return isDigit(c) || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func unescape(c byte) (byte, error) {
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case '\\':
		return '\\', nil
	case '\'':
		return '\'', nil
	case '"':
		return '"', nil
	}
	return 0, fmt.Errorf("unknown escape \\%c", c)
}
