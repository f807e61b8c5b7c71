package algebra

import (
	"fmt"
	"strconv"
	"strings"

	"x100/internal/dateutil"
	"x100/internal/expr"
	"x100/internal/vector"
)

// Parse reads a plan in the paper's textual X100 algebra syntax, e.g.:
//
//	Aggr(
//	  Project(
//	    Select(Scan(lineitem), <(l_shipdate, date('1998-09-03'))),
//	    [discountprice = *(-(flt('1.0'), l_discount), l_extendedprice)]),
//	  [l_returnflag],
//	  [sum_disc_price = sum(discountprice)])
//
// Operators: Table/Scan, Select, Project, Aggr, HashAggr, DirectAggr,
// OrdAggr, Order, TopN, Fetch1Join, Array. Expressions use
// prefix syntax: +,-,*,/ for arithmetic; <,<=,>,>=,==,!= for comparison;
// and/or/not; like/notlike; in; case; year/substr/square/concat;
// flt/int/lng/dbl casts; date('YYYY-MM-DD') and str('...') literals.
func Parse(input string) (Node, error) {
	p := &parser{lex: newLexer(input)}
	n, err := p.parsePlan()
	if err != nil {
		return nil, err
	}
	if tok := p.lex.peek(); tok.kind != tokEOF {
		return nil, fmt.Errorf("algebra: trailing input at %q", tok.text)
	}
	return n, nil
}

// ParseExpr parses a standalone expression in the same syntax.
func ParseExpr(input string) (expr.Expr, error) {
	p := &parser{lex: newLexer(input)}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if tok := p.lex.peek(); tok.kind != tokEOF {
		return nil, fmt.Errorf("algebra: trailing input at %q", tok.text)
	}
	return e, nil
}

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct // ( ) [ ] ,
	tokOp    // + - * / < <= > >= == != =
)

type token struct {
	kind tokKind
	text string
}

type lexer struct {
	in   string
	pos  int
	cur  token
	next *token
}

func newLexer(in string) *lexer {
	l := &lexer{in: in}
	return l
}

func (l *lexer) peek() token {
	if l.next == nil {
		t := l.scan()
		l.next = &t
	}
	return *l.next
}

func (l *lexer) take() token {
	t := l.peek()
	l.next = nil
	return t
}

func (l *lexer) scan() token {
	for l.pos < len(l.in) {
		c := l.in[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		break
	}
	if l.pos >= len(l.in) {
		return token{kind: tokEOF}
	}
	c := l.in[l.pos]
	switch {
	case c == '(' || c == ')' || c == '[' || c == ']' || c == ',':
		l.pos++
		return token{kind: tokPunct, text: string(c)}
	case c == '\'':
		end := strings.IndexByte(l.in[l.pos+1:], '\'')
		if end < 0 {
			return token{kind: tokEOF, text: "unterminated string"}
		}
		s := l.in[l.pos+1 : l.pos+1+end]
		l.pos += end + 2
		return token{kind: tokString, text: s}
	case c == '<' || c == '>' || c == '=' || c == '!':
		start := l.pos
		l.pos++
		if l.pos < len(l.in) && l.in[l.pos] == '=' {
			l.pos++
		}
		return token{kind: tokOp, text: l.in[start:l.pos]}
	case c == '+' || c == '*' || c == '/':
		l.pos++
		return token{kind: tokOp, text: string(c)}
	case c == '-':
		// Minus is an operator unless followed by a digit (negative literal).
		if l.pos+1 < len(l.in) && l.in[l.pos+1] >= '0' && l.in[l.pos+1] <= '9' {
			return l.scanNumber()
		}
		l.pos++
		return token{kind: tokOp, text: "-"}
	case c >= '0' && c <= '9':
		return l.scanNumber()
	default:
		start := l.pos
		for l.pos < len(l.in) {
			c := l.in[l.pos]
			if c == '_' || c == '#' || c == '@' || c == '.' ||
				(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
				l.pos++
				continue
			}
			break
		}
		if l.pos == start {
			l.pos++
			return token{kind: tokPunct, text: string(c)}
		}
		return token{kind: tokIdent, text: l.in[start:l.pos]}
	}
}

func (l *lexer) scanNumber() token {
	start := l.pos
	if l.in[l.pos] == '-' {
		l.pos++
	}
	seenDot := false
	for l.pos < len(l.in) {
		c := l.in[l.pos]
		if c >= '0' && c <= '9' {
			l.pos++
			continue
		}
		if c == '.' && !seenDot {
			seenDot = true
			l.pos++
			continue
		}
		break
	}
	return token{kind: tokNumber, text: l.in[start:l.pos]}
}

type parser struct {
	lex *lexer
}

func (p *parser) expect(kind tokKind, text string) error {
	t := p.lex.take()
	if t.kind != kind || (text != "" && t.text != text) {
		return fmt.Errorf("algebra: expected %q, got %q", text, t.text)
	}
	return nil
}

func (p *parser) parsePlan() (Node, error) {
	t := p.lex.take()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("algebra: expected operator name, got %q", t.text)
	}
	if err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	var n Node
	var err error
	switch t.text {
	case "Table", "Scan":
		n, err = p.parseScan()
	case "Select":
		n, err = p.parseSelect()
	case "Project":
		n, err = p.parseProject()
	case "Aggr", "HashAggr", "DirectAggr", "OrdAggr":
		n, err = p.parseAggr(t.text)
	case "Order":
		n, err = p.parseOrder()
	case "TopN":
		n, err = p.parseTopN()
	case "Fetch1Join":
		n, err = p.parseFetch1Join()
	case "Array":
		n, err = p.parseArray()
	default:
		return nil, fmt.Errorf("algebra: unknown operator %q", t.text)
	}
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	return n, nil
}

func (p *parser) parseScan() (Node, error) {
	t := p.lex.take()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("algebra: expected table name, got %q", t.text)
	}
	s := &Scan{Table: t.text}
	if p.lex.peek().text == "," {
		p.lex.take()
		cols, err := p.parseIdentList()
		if err != nil {
			return nil, err
		}
		s.Cols = cols
	}
	return s, nil
}

func (p *parser) parseSelect() (Node, error) {
	in, err := p.parseChild()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokPunct, ","); err != nil {
		return nil, err
	}
	pred, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &Select{Input: in, Pred: pred}, nil
}

// parseChild parses a nested plan; a bare identifier is shorthand for
// Scan(ident).
func (p *parser) parseChild() (Node, error) {
	t := p.lex.peek()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("algebra: expected plan, got %q", t.text)
	}
	switch t.text {
	case "Table", "Scan", "Select", "Project", "Aggr", "HashAggr", "DirectAggr",
		"OrdAggr", "Order", "TopN", "Fetch1Join", "Array":
		return p.parsePlan()
	default:
		p.lex.take()
		return &Scan{Table: t.text}, nil
	}
}

func (p *parser) parseProject() (Node, error) {
	in, err := p.parseChild()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokPunct, ","); err != nil {
		return nil, err
	}
	nes, err := p.parseNamedExprList()
	if err != nil {
		return nil, err
	}
	return &Project{Input: in, Exprs: nes}, nil
}

func (p *parser) parseAggr(kind string) (Node, error) {
	in, err := p.parseChild()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokPunct, ","); err != nil {
		return nil, err
	}
	groups, err := p.parseNamedExprList()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokPunct, ","); err != nil {
		return nil, err
	}
	aggs, err := p.parseAggList()
	if err != nil {
		return nil, err
	}
	a := &Aggr{Input: in, GroupBy: groups, Aggs: aggs}
	switch kind {
	case "HashAggr":
		a.Mode = ModeHash
	case "DirectAggr":
		a.Mode = ModeDirect
	case "OrdAggr":
		a.Mode = ModeOrdered
	}
	return a, nil
}

func (p *parser) parseOrder() (Node, error) {
	in, err := p.parseChild()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokPunct, ","); err != nil {
		return nil, err
	}
	keys, err := p.parseOrdList()
	if err != nil {
		return nil, err
	}
	return &Order{Input: in, Keys: keys}, nil
}

func (p *parser) parseTopN() (Node, error) {
	in, err := p.parseChild()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokPunct, ","); err != nil {
		return nil, err
	}
	keys, err := p.parseOrdList()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokPunct, ","); err != nil {
		return nil, err
	}
	t := p.lex.take()
	if t.kind != tokNumber {
		return nil, fmt.Errorf("algebra: TopN limit must be a number, got %q", t.text)
	}
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return nil, err
	}
	return &TopN{Input: in, Keys: keys, N: n}, nil
}

func (p *parser) parseFetch1Join() (Node, error) {
	in, err := p.parseChild()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokPunct, ","); err != nil {
		return nil, err
	}
	tbl := p.lex.take()
	if tbl.kind != tokIdent {
		return nil, fmt.Errorf("algebra: expected table name, got %q", tbl.text)
	}
	if err := p.expect(tokPunct, ","); err != nil {
		return nil, err
	}
	rowID, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokPunct, ","); err != nil {
		return nil, err
	}
	cols, err := p.parseIdentList()
	if err != nil {
		return nil, err
	}
	return &Fetch1Join{Input: in, Table: tbl.text, RowID: rowID, Cols: cols}, nil
}

func (p *parser) parseArray() (Node, error) {
	if err := p.expect(tokPunct, "["); err != nil {
		return nil, err
	}
	var dims []int
	for {
		t := p.lex.take()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("algebra: expected dimension, got %q", t.text)
		}
		d, err := strconv.Atoi(t.text)
		if err != nil {
			return nil, err
		}
		dims = append(dims, d)
		nxt := p.lex.take()
		if nxt.text == "]" {
			break
		}
		if nxt.text != "," {
			return nil, fmt.Errorf("algebra: expected , or ], got %q", nxt.text)
		}
	}
	return &Array{Dims: dims}, nil
}

func (p *parser) parseIdentList() ([]string, error) {
	if err := p.expect(tokPunct, "["); err != nil {
		return nil, err
	}
	var out []string
	if p.lex.peek().text == "]" {
		p.lex.take()
		return out, nil
	}
	for {
		t := p.lex.take()
		if t.kind != tokIdent {
			return nil, fmt.Errorf("algebra: expected identifier, got %q", t.text)
		}
		out = append(out, t.text)
		nxt := p.lex.take()
		if nxt.text == "]" {
			return out, nil
		}
		if nxt.text != "," {
			return nil, fmt.Errorf("algebra: expected , or ], got %q", nxt.text)
		}
	}
}

func (p *parser) parseNamedExprList() ([]NamedExpr, error) {
	if err := p.expect(tokPunct, "["); err != nil {
		return nil, err
	}
	var out []NamedExpr
	if p.lex.peek().text == "]" {
		p.lex.take()
		return out, nil
	}
	for {
		ne, err := p.parseNamedExpr()
		if err != nil {
			return nil, err
		}
		out = append(out, ne)
		nxt := p.lex.take()
		if nxt.text == "]" {
			return out, nil
		}
		if nxt.text != "," {
			return nil, fmt.Errorf("algebra: expected , or ], got %q", nxt.text)
		}
	}
}

func (p *parser) parseNamedExpr() (NamedExpr, error) {
	t := p.lex.peek()
	if t.kind == tokIdent {
		// Could be "name = expr" or a bare column.
		name := p.lex.take()
		if p.lex.peek().text == "=" {
			p.lex.take()
			e, err := p.parseExpr()
			if err != nil {
				return NamedExpr{}, err
			}
			return NamedExpr{Alias: name.text, E: e}, nil
		}
		// Bare column — but it might be a call like year(x) without alias.
		if p.lex.peek().text == "(" {
			e, err := p.parseCall(name.text)
			if err != nil {
				return NamedExpr{}, err
			}
			return NamedExpr{Alias: e.String(), E: e}, nil
		}
		return NamedExpr{Alias: name.text, E: expr.C(name.text)}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return NamedExpr{}, err
	}
	return NamedExpr{Alias: e.String(), E: e}, nil
}

func (p *parser) parseAggList() ([]AggExpr, error) {
	if err := p.expect(tokPunct, "["); err != nil {
		return nil, err
	}
	var out []AggExpr
	if p.lex.peek().text == "]" {
		p.lex.take()
		return out, nil
	}
	for {
		name := p.lex.take()
		if name.kind != tokIdent {
			return nil, fmt.Errorf("algebra: expected aggregate alias, got %q", name.text)
		}
		if err := p.expect(tokOp, "="); err != nil {
			return nil, err
		}
		fn := p.lex.take()
		if fn.kind != tokIdent {
			return nil, fmt.Errorf("algebra: expected aggregate function, got %q", fn.text)
		}
		if err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		var arg expr.Expr
		if p.lex.peek().text != ")" {
			var err error
			arg, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		var kind AggFn
		switch fn.text {
		case "sum":
			kind = AggSum
		case "count":
			kind = AggCount
		case "min":
			kind = AggMin
		case "max":
			kind = AggMax
		case "avg":
			kind = AggAvg
		default:
			return nil, fmt.Errorf("algebra: unknown aggregate %q", fn.text)
		}
		if kind != AggCount && arg == nil {
			return nil, fmt.Errorf("algebra: aggregate %s requires an argument", fn.text)
		}
		out = append(out, AggExpr{Alias: name.text, Fn: kind, Arg: arg})
		nxt := p.lex.take()
		if nxt.text == "]" {
			return out, nil
		}
		if nxt.text != "," {
			return nil, fmt.Errorf("algebra: expected , or ], got %q", nxt.text)
		}
	}
}

func (p *parser) parseOrdList() ([]OrdExpr, error) {
	if err := p.expect(tokPunct, "["); err != nil {
		return nil, err
	}
	var out []OrdExpr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		o := OrdExpr{E: e}
		if t := p.lex.peek(); t.kind == tokIdent && (t.text == "ASC" || t.text == "DESC") {
			p.lex.take()
			o.Desc = t.text == "DESC"
		}
		out = append(out, o)
		nxt := p.lex.take()
		if nxt.text == "]" {
			return out, nil
		}
		if nxt.text != "," {
			return nil, fmt.Errorf("algebra: expected , or ], got %q", nxt.text)
		}
	}
}

func (p *parser) parseExpr() (expr.Expr, error) {
	t := p.lex.take()
	switch t.kind {
	case tokOp:
		return p.parseOpCall(t.text)
	case tokNumber:
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, err
			}
			return expr.Float(f), nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, err
		}
		return expr.Int(n), nil
	case tokString:
		return expr.Str(t.text), nil
	case tokIdent:
		if p.lex.peek().text == "(" {
			return p.parseCall(t.text)
		}
		return expr.C(t.text), nil
	default:
		return nil, fmt.Errorf("algebra: unexpected token %q in expression", t.text)
	}
}

func (p *parser) parseOpCall(op string) (expr.Expr, error) {
	args, err := p.parseArgs(2, 2)
	if err != nil {
		return nil, fmt.Errorf("algebra: operator %s: %w", op, err)
	}
	switch op {
	case "+":
		return expr.AddE(args[0], args[1]), nil
	case "-":
		return expr.SubE(args[0], args[1]), nil
	case "*":
		return expr.MulE(args[0], args[1]), nil
	case "/":
		return expr.DivE(args[0], args[1]), nil
	case "<":
		return expr.LTE(args[0], args[1]), nil
	case "<=":
		return expr.LEE(args[0], args[1]), nil
	case ">":
		return expr.GTE(args[0], args[1]), nil
	case ">=":
		return expr.GEE(args[0], args[1]), nil
	case "==", "=":
		return expr.EQE(args[0], args[1]), nil
	case "!=":
		return expr.NEE(args[0], args[1]), nil
	default:
		return nil, fmt.Errorf("algebra: unknown operator %q", op)
	}
}

func (p *parser) parseArgs(minN, maxN int) ([]expr.Expr, error) {
	if err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	var args []expr.Expr
	if p.lex.peek().text == ")" {
		p.lex.take()
	} else {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, e)
			nxt := p.lex.take()
			if nxt.text == ")" {
				break
			}
			if nxt.text != "," {
				return nil, fmt.Errorf("expected , or ), got %q", nxt.text)
			}
		}
	}
	if len(args) < minN || (maxN >= 0 && len(args) > maxN) {
		return nil, fmt.Errorf("expected %d..%d arguments, got %d", minN, maxN, len(args))
	}
	return args, nil
}

func (p *parser) parseCall(fn string) (expr.Expr, error) {
	switch fn {
	case "flt", "dbl":
		// flt('1.0') literal or dbl(expr) cast.
		if err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		t := p.lex.peek()
		if t.kind == tokString {
			p.lex.take()
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("algebra: bad float literal %q", t.text)
			}
			if err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			return expr.Float(f), nil
		}
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		return expr.CastE(vector.Float64, arg), nil
	case "lng":
		args, err := p.parseArgs(1, 1)
		if err != nil {
			return nil, err
		}
		return expr.CastE(vector.Int64, args[0]), nil
	case "int", "sint":
		args, err := p.parseArgs(1, 1)
		if err != nil {
			return nil, err
		}
		return expr.CastE(vector.Int32, args[0]), nil
	case "date":
		if err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		t := p.lex.take()
		if t.kind != tokString {
			return nil, fmt.Errorf("algebra: date() wants a 'YYYY-MM-DD' literal")
		}
		d, err := dateutil.Parse(t.text)
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		return expr.DateConst(d), nil
	case "str":
		if err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		t := p.lex.take()
		if t.kind != tokString {
			return nil, fmt.Errorf("algebra: str() wants a string literal")
		}
		if err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		return expr.Str(t.text), nil
	case "and":
		args, err := p.parseArgs(2, -1)
		if err != nil {
			return nil, err
		}
		return expr.AndE(args...), nil
	case "or":
		args, err := p.parseArgs(2, -1)
		if err != nil {
			return nil, err
		}
		return expr.OrE(args...), nil
	case "not":
		args, err := p.parseArgs(1, 1)
		if err != nil {
			return nil, err
		}
		return expr.NotE(args[0]), nil
	case "like", "notlike":
		args, err := p.parseArgs(2, 2)
		if err != nil {
			return nil, err
		}
		pat, ok := args[1].(*expr.Const)
		if !ok || pat.Typ != vector.String {
			return nil, fmt.Errorf("algebra: like pattern must be a string literal")
		}
		if fn == "like" {
			return expr.LikeE(args[0], pat.Val.(string)), nil
		}
		return expr.NotLikeE(args[0], pat.Val.(string)), nil
	case "in":
		args, err := p.parseArgs(2, -1)
		if err != nil {
			return nil, err
		}
		list := make([]*expr.Const, 0, len(args)-1)
		for _, a := range args[1:] {
			c, ok := a.(*expr.Const)
			if !ok {
				return nil, fmt.Errorf("algebra: in-list elements must be literals")
			}
			list = append(list, c)
		}
		return expr.InE(args[0], list...), nil
	case "case":
		args, err := p.parseArgs(3, 3)
		if err != nil {
			return nil, err
		}
		return expr.CaseE(args[0], args[1], args[2]), nil
	case "year":
		args, err := p.parseArgs(1, 1)
		if err != nil {
			return nil, err
		}
		return expr.YearE(args[0]), nil
	case "square":
		args, err := p.parseArgs(1, 1)
		if err != nil {
			return nil, err
		}
		return expr.SquareE(args[0]), nil
	case "concat":
		args, err := p.parseArgs(2, 2)
		if err != nil {
			return nil, err
		}
		return expr.ConcatE(args[0], args[1]), nil
	case "substr":
		args, err := p.parseArgs(3, 3)
		if err != nil {
			return nil, err
		}
		start, ok1 := args[1].(*expr.Const)
		length, ok2 := args[2].(*expr.Const)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("algebra: substr start/length must be integer literals")
		}
		return expr.SubstrE(args[0], int(start.Val.(int64)), int(length.Val.(int64))), nil
	default:
		return nil, fmt.Errorf("algebra: unknown function %q", fn)
	}
}
