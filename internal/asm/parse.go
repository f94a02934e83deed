package asm

import (
	"fmt"
	"strconv"
	"strings"

	"delinq/internal/isa"
	"delinq/internal/obj"
)

// The text syntax: one statement per line, labels ("name:") first,
// operands separated by commas, comments from '#' to end of line. The
// parser turns each line into typed statements once; no later pass
// reads text.

var mnemonicByName = func() map[string]Mnemonic {
	m := make(map[string]Mnemonic, len(mnemonics))
	for i, info := range mnemonics {
		if info.name != "" {
			m[info.name] = Mnemonic(i)
		}
	}
	return m
}()

var directiveByName = func() map[string]Directive {
	m := make(map[string]Directive, len(directiveNames)+1)
	for i, name := range directiveNames {
		if name != "" {
			m[name] = Directive(i)
		}
	}
	m[".global"] = DGlobl
	return m
}()

// rawStmt is the statement of one source line split into its fields,
// before typing.
type rawStmt struct {
	line   int
	name   string   // directive (with dot) or mnemonic
	args   []string // operand spellings
	quoted string   // payload of .ascii/.asciiz
}

func stripComment(s string) string {
	inStr := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case '\\':
			if inStr {
				i++
			}
		case '#':
			if !inStr {
				return s[:i]
			}
		}
	}
	return s
}

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// parse turns assembly text into a program, one line at a time. A
// struct tag names the same type wherever it appears, before or after
// the .struct that gives its fields.
func parse(src string) (*Program, error) {
	p := &Program{}
	structs := map[string]*obj.Type{}
	for num, rawLine := range strings.Split(src, "\n") {
		line := strings.TrimSpace(stripComment(rawLine))
		r := rawStmt{line: num + 1}
		for line != "" {
			// Leading label?
			if i := strings.IndexByte(line, ':'); i > 0 && isIdent(line[:i]) &&
				!strings.ContainsAny(line[:i], " \t") {
				p.add(r.line, line[:i], 0, 0, nil)
				line = strings.TrimSpace(line[i+1:])
				continue
			}
			break
		}
		if line == "" {
			continue
		}
		r.name = line
		rest := ""
		if sp := strings.IndexAny(line, " \t"); sp >= 0 {
			r.name, rest = line[:sp], strings.TrimSpace(line[sp:])
		}
		if r.name == ".ascii" || r.name == ".asciiz" {
			q, err := unquote(rest)
			if err != nil {
				return nil, errf(r.line, "%v", err)
			}
			r.quoted = q
		} else {
			r.args = splitArgs(rest)
		}
		if err := p.addRaw(&r, structs); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// addRaw types one split source statement and appends it.
func (p *Program) addRaw(r *rawStmt, structs map[string]*obj.Type) error {
	if r.name[0] == '.' {
		d, ok := directiveByName[r.name]
		if !ok {
			return errf(r.line, "unknown directive %s", r.name)
		}
		args, err := dirOperands(r, d, structs)
		if err != nil {
			return err
		}
		p.add(r.line, "", d, 0, args)
		return nil
	}
	m, ok := mnemonicByName[r.name]
	if !ok {
		return errf(r.line, "unknown mnemonic %q", r.name)
	}
	form := mnemonics[m].form
	if m == JALR && len(r.args) == 1 {
		form = "r"
	}
	if len(r.args) != len(form) {
		return arityError(r.line, m, len(r.args))
	}
	var buf [3]Operand
	args := buf[:0]
	for i, txt := range r.args {
		o, err := instOperand(r.line, form[i], txt)
		if err != nil {
			return err
		}
		args = append(args, o)
	}
	p.add(r.line, "", 0, m, args)
	return nil
}

// instOperand types one instruction operand by its form letter.
func instOperand(line int, letter byte, txt string) (Operand, error) {
	switch letter {
	case 'r':
		r, err := regByText(line, txt)
		return Reg(r), err
	case 'f':
		if !strings.HasPrefix(txt, "$f") {
			return Operand{}, errf(line, "expected FP register, got %q", txt)
		}
		n, err := strconv.Atoi(txt[2:])
		if err != nil || n < 0 || n > 31 {
			return Operand{}, errf(line, "bad FP register %q", txt)
		}
		return FReg(isa.Reg(n)), nil
	case 'i':
		v, err := parseInt(txt)
		if err != nil {
			return Operand{}, errf(line, "bad immediate %q", txt)
		}
		return Imm(v), nil
	case 't':
		return intOrSym(txt), nil
	case 'a':
		return symOperand(txt), nil
	case 'm':
		i := strings.IndexByte(txt, '(')
		if i < 0 {
			return symOperand(txt), nil
		}
		if !strings.HasSuffix(txt, ")") {
			return Operand{}, errf(line, "malformed memory operand %q", txt)
		}
		base, err := regByText(line, txt[i+1:len(txt)-1])
		if err != nil {
			return Operand{}, err
		}
		mem := Mem(0, base)
		if offTxt := strings.TrimSpace(txt[:i]); offTxt != "" {
			if v, err := parseInt(offTxt); err == nil {
				mem.Int = v
			} else {
				mem.Name, mem.Int = splitSymOffset(offTxt)
			}
		}
		return mem, nil
	case 'x':
		return floatOperand(txt), nil
	}
	return Operand{}, errf(line, "bad operand %q", txt)
}

// dirOperands types a directive's operands, parsing the symbol-metadata
// notations.
func dirOperands(r *rawStmt, d Directive, structs map[string]*obj.Type) ([]Operand, error) {
	line, args := r.line, r.args
	ints := func(what string) ([]Operand, error) {
		out := make([]Operand, len(args))
		for i, arg := range args {
			v, err := parseInt(arg)
			if err != nil {
				return nil, errf(line, "bad %s %q", what, arg)
			}
			out[i] = Imm(v)
		}
		return out, nil
	}
	typ := func(s string) (Operand, error) {
		if i := strings.LastIndex(s, "struct:"); i >= 0 {
			structType(structs, s[i+len("struct:"):])
		}
		t, err := obj.ParseType(s, structs)
		if err != nil {
			return Operand{}, errf(line, "%v", err)
		}
		return Typ(t), nil
	}
	switch d {
	case DText, DData, DGlobl, DEndfunc:
		return nil, nil
	case DWord:
		out := make([]Operand, len(args))
		for i, arg := range args {
			out[i] = intOrSym(arg)
		}
		return out, nil
	case DHalf:
		return ints(".half operand")
	case DByte:
		return ints(".byte operand")
	case DSpace:
		return ints(".space size")
	case DAlign:
		return ints(".align")
	case DFloat:
		out := make([]Operand, len(args))
		for i, arg := range args {
			out[i] = floatOperand(arg)
		}
		return out, nil
	case DAscii, DAsciiz:
		return []Operand{Str(r.quoted)}, nil
	case DFunc:
		var name string
		var frame int64
		for _, arg := range args {
			switch {
			case strings.HasPrefix(arg, "frame="):
				n, err := parseInt(arg[len("frame="):])
				if err != nil {
					return nil, errf(line, "bad frame size %q", arg)
				}
				frame = n
			case name == "":
				name = arg
			default:
				return nil, errf(line, "unexpected .func operand %q", arg)
			}
		}
		if name == "" {
			return nil, errf(line, ".func needs a name")
		}
		return []Operand{Sym(name), Imm(frame)}, nil
	case DLocal, DParam:
		if len(args) != 1 {
			return nil, errf(line, "%s wants name:offset:type", d)
		}
		parts := strings.SplitN(args[0], ":", 3)
		if len(parts) != 3 {
			return nil, errf(line, "%s wants name:offset:type, got %q", d, args[0])
		}
		off, err := parseInt(parts[1])
		if err != nil {
			return nil, errf(line, "bad local offset %q", parts[1])
		}
		t, err := typ(parts[2])
		if err != nil {
			return nil, err
		}
		return []Operand{Sym(parts[0]), Imm(off), t}, nil
	case DObject:
		if len(args) != 2 {
			return nil, errf(line, ".object wants name and type")
		}
		t, err := typ(args[1])
		if err != nil {
			return nil, err
		}
		return []Operand{Sym(args[0]), t}, nil
	case DStruct:
		if len(args) < 1 {
			return nil, errf(line, ".struct wants a name")
		}
		st := structType(structs, args[0])
		for _, farg := range args[1:] {
			parts := strings.SplitN(farg, ":", 3)
			if len(parts) != 3 {
				return nil, errf(line, "struct field wants name:offset:type, got %q", farg)
			}
			off, err := parseInt(parts[1])
			if err != nil {
				return nil, errf(line, "bad field offset %q", parts[1])
			}
			t, err := typ(parts[2])
			if err != nil {
				return nil, err
			}
			st.Fields = append(st.Fields, obj.Field{Name: parts[0], Offset: int(off), Type: t.Type})
		}
		return []Operand{Typ(st)}, nil
	case DEntry:
		if len(args) != 1 {
			return nil, errf(line, ".entry wants a symbol")
		}
		return []Operand{Sym(args[0])}, nil
	}
	return nil, errf(line, "unknown directive %s", d)
}

// structType returns the struct type named tag, creating it on first
// mention.
func structType(structs map[string]*obj.Type, tag string) *obj.Type {
	st := structs[tag]
	if st == nil {
		st = &obj.Type{Kind: obj.KindStruct, Name: tag}
		structs[tag] = st
	}
	return st
}

// intOrSym types an operand that is an integer or a symbol plus offset.
func intOrSym(txt string) Operand {
	if v, err := parseInt(txt); err == nil {
		return Imm(v)
	}
	return symOperand(txt)
}

func symOperand(txt string) Operand {
	name, off := splitSymOffset(txt)
	return Operand{Kind: KSym, Name: name, Int: off}
}

// floatOperand types a float literal by parsing it as single precision
// directly. A spelling that is not one is kept, and fails where the
// value is used.
func floatOperand(txt string) Operand {
	f, err := strconv.ParseFloat(txt, 32)
	if err != nil {
		return Operand{Kind: KFloat, Name: txt}
	}
	return Float(f)
}

func regByText(line int, txt string) (isa.Reg, error) {
	txt = strings.TrimSpace(txt)
	if !strings.HasPrefix(txt, "$") {
		return 0, errf(line, "expected register, got %q", txt)
	}
	r, ok := isa.RegByName(txt[1:])
	if !ok {
		return 0, errf(line, "unknown register %q", txt)
	}
	return r, nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == '.' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			i > 0 && c >= '0' && c <= '9'
		if !ok {
			return false
		}
	}
	return true
}

func splitArgs(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		out = append(out, strings.TrimSpace(p))
	}
	return out
}

func unquote(s string) (string, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return "", fmt.Errorf("expected quoted string, got %q", s)
	}
	return strconv.Unquote(s)
}

// parseInt parses decimal, hex (0x), negative, and character ('c')
// literals.
func parseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'' {
		body, err := strconv.Unquote(s)
		if err != nil || len(body) != 1 {
			return 0, fmt.Errorf("bad char literal %q", s)
		}
		return int64(body[0]), nil
	}
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		// Allow full-range unsigned hex like 0xdeadbeef.
		u, uerr := strconv.ParseUint(s, 0, 32)
		if uerr != nil {
			return 0, err
		}
		return int64(int32(u)), nil
	}
	return v, nil
}

// splitSymOffset splits "sym+12" / "sym-4" / "sym" into name and offset.
func splitSymOffset(s string) (string, int64) {
	s = strings.TrimSpace(s)
	for i := 1; i < len(s); i++ {
		if s[i] == '+' || s[i] == '-' {
			off, err := parseInt(s[i:])
			if err != nil {
				return s, 0
			}
			return s[:i], off
		}
	}
	return s, 0
}
