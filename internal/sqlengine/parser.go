package sqlengine

import (
	"fmt"
	"strconv"
	"strings"
)

// parser is a recursive-descent parser over a token slice.
type parser struct {
	toks []token
	pos  int
	src  string
}

// Parse parses a single SQL statement (a trailing semicolon is allowed).
func Parse(src string) (Statement, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(tokSemicolon, "")
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input near %q", p.peek().Text)
	}
	return st, nil
}

// IsSelect reports whether sql is a read: Parse makes a SELECT statement of
// exactly the text whose first token is the SELECT keyword, and of nothing
// else. It is the check that keeps writes out of a served database;
// whether the text parses at all is left to Prepare.
func IsSelect(sql string) bool {
	lx := lexer{src: sql}
	t, err := lx.Next()
	return err == nil && t.Type == tokKeyword && t.Text == "SELECT"
}

// ParseSelect parses src and requires it to be a SELECT statement.
func ParseSelect(src string) (*SelectStmt, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqlengine: expected SELECT statement, got %T", st)
	}
	return sel, nil
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.peekKeyword("SELECT"):
		return p.parseSelect()
	case p.peekKeyword("CREATE"):
		return p.parseCreateTable()
	case p.peekKeyword("INSERT"):
		return p.parseInsert()
	case p.peekKeyword("UPDATE"):
		return p.parseUpdate()
	case p.peekKeyword("DELETE"):
		return p.parseDelete()
	}
	return nil, p.errorf("expected statement, got %q", p.peek().Text)
}

// --- SELECT ---

func (p *parser) parseSelect() (*SelectStmt, error) {
	sel, err := p.parseSelectCore()
	if err != nil {
		return nil, err
	}
	// Compound operators chain onto the first select.
	cur := sel
	for {
		var op CompoundOp
		switch {
		case p.acceptKeyword("UNION"):
			if p.acceptKeyword("ALL") {
				op = CompoundUnionAll
			} else {
				op = CompoundUnion
			}
		case p.acceptKeyword("EXCEPT"):
			op = CompoundExcept
		case p.acceptKeyword("INTERSECT"):
			op = CompoundIntersect
		default:
			op = CompoundNone
		}
		if op == CompoundNone {
			break
		}
		next, err := p.parseSelectCore()
		if err != nil {
			return nil, err
		}
		cur.Compound = op
		cur.Next = next
		cur = next
	}
	// ORDER BY / LIMIT apply to the whole compound; attach to the head.
	if err := p.parseSelectTail(sel); err != nil {
		return nil, err
	}
	return sel, nil
}

func (p *parser) parseSelectCore() (*SelectStmt, error) {
	if !p.acceptKeyword("SELECT") {
		return nil, p.errorf("expected SELECT, got %q", p.peek().Text)
	}
	sel := &SelectStmt{}
	if p.acceptKeyword("DISTINCT") {
		sel.Distinct = true
	} else {
		p.acceptKeyword("ALL")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Columns = append(sel.Columns, item)
		if !p.accept(tokComma, "") {
			break
		}
	}
	if p.acceptKeyword("FROM") {
		from, err := p.parseFrom()
		if err != nil {
			return nil, err
		}
		sel.From = from
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if !p.acceptKeyword("BY") {
			return nil, p.errorf("expected BY after GROUP")
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.accept(tokComma, "") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}
	return sel, nil
}

// parseSelectTail parses ORDER BY / LIMIT / OFFSET, which follow any
// compound chain.
func (p *parser) parseSelectTail(sel *SelectStmt) error {
	if p.acceptKeyword("ORDER") {
		if !p.acceptKeyword("BY") {
			return p.errorf("expected BY after ORDER")
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(tokComma, "") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		sel.Limit = e
		if p.acceptKeyword("OFFSET") {
			o, err := p.parseExpr()
			if err != nil {
				return err
			}
			sel.Offset = o
		} else if p.accept(tokComma, "") {
			// LIMIT offset, count (MySQL style): first expr was the offset.
			c, err := p.parseExpr()
			if err != nil {
				return err
			}
			sel.Offset = sel.Limit
			sel.Limit = c
		}
	}
	return nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	// Bare star.
	if p.accept(tokStar, "") {
		return SelectItem{Star: true}, nil
	}
	// Qualified star: ident '.' '*'
	if p.peek().Type == tokIdent && p.peekAt(1).Type == tokDot && p.peekAt(2).Type == tokStar {
		table := p.next().Text
		p.next() // dot
		p.next() // star
		return SelectItem{Star: true, StarTable: table}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdentLike()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.peek().Type == tokIdent {
		item.Alias = p.next().Text
	}
	return item, nil
}

func (p *parser) parseFrom() ([]FromItem, error) {
	var items []FromItem
	first, err := p.parseFromItem()
	if err != nil {
		return nil, err
	}
	items = append(items, first)
	for {
		var jt JoinType
		switch {
		case p.acceptKeyword("INNER"):
			if !p.acceptKeyword("JOIN") {
				return nil, p.errorf("expected JOIN after INNER")
			}
			jt = JoinInner
		case p.acceptKeyword("LEFT"):
			p.acceptKeyword("OUTER")
			if !p.acceptKeyword("JOIN") {
				return nil, p.errorf("expected JOIN after LEFT")
			}
			jt = JoinLeft
		case p.acceptKeyword("CROSS"):
			if !p.acceptKeyword("JOIN") {
				return nil, p.errorf("expected JOIN after CROSS")
			}
			jt = JoinCross
		case p.acceptKeyword("JOIN"):
			jt = JoinInner
		case p.accept(tokComma, ""):
			jt = JoinCross
		default:
			return items, nil
		}
		item, err := p.parseFromItem()
		if err != nil {
			return nil, err
		}
		item.Join = jt
		if jt != JoinCross && p.acceptKeyword("ON") {
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item.On = on
		}
		items = append(items, item)
	}
}

func (p *parser) parseFromItem() (FromItem, error) {
	var item FromItem
	if p.accept(tokLParen, "") {
		sub, err := p.parseSelect()
		if err != nil {
			return item, err
		}
		if !p.accept(tokRParen, "") {
			return item, p.errorf("expected ) after subquery")
		}
		item.Sub = sub
	} else {
		name, err := p.expectIdentLike()
		if err != nil {
			return item, err
		}
		item.Table = name
	}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdentLike()
		if err != nil {
			return item, err
		}
		item.Alias = alias
	} else if p.peek().Type == tokIdent {
		item.Alias = p.next().Text
	}
	if item.Sub != nil && item.Alias == "" {
		item.Alias = "subquery"
	}
	return item, nil
}

// --- DDL / DML ---

func (p *parser) parseCreateTable() (Statement, error) {
	p.next() // CREATE
	if !p.acceptKeyword("TABLE") {
		return nil, p.errorf("expected TABLE after CREATE")
	}
	// Optional IF NOT EXISTS.
	if p.peekKeyword("IS") { // never valid here; skip
		return nil, p.errorf("unexpected IS")
	}
	name, err := p.expectIdentLike()
	if err != nil {
		return nil, err
	}
	if !p.accept(tokLParen, "") {
		return nil, p.errorf("expected ( in CREATE TABLE")
	}
	ct := &CreateTableStmt{Name: name}
	for {
		switch {
		case p.acceptKeyword("PRIMARY"):
			if !p.acceptKeyword("KEY") {
				return nil, p.errorf("expected KEY after PRIMARY")
			}
			cols, err := p.parseParenIdentList()
			if err != nil {
				return nil, err
			}
			for _, c := range cols {
				p.markPrimary(ct, c)
			}
		case p.acceptKeyword("FOREIGN"):
			if !p.acceptKeyword("KEY") {
				return nil, p.errorf("expected KEY after FOREIGN")
			}
			cols, err := p.parseParenIdentList()
			if err != nil {
				return nil, err
			}
			if !p.acceptKeyword("REFERENCES") {
				return nil, p.errorf("expected REFERENCES")
			}
			parent, err := p.expectIdentLike()
			if err != nil {
				return nil, err
			}
			pcols, err := p.parseParenIdentList()
			if err != nil {
				return nil, err
			}
			for i, c := range cols {
				pc := c
				if i < len(pcols) {
					pc = pcols[i]
				}
				ct.ForeignKeys = append(ct.ForeignKeys, ForeignKeyDef{Column: c, ParentTable: parent, ParentColumn: pc})
			}
		case p.acceptKeyword("UNIQUE"):
			if _, err := p.parseParenIdentList(); err != nil {
				return nil, err
			}
		default:
			col, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			ct.Columns = append(ct.Columns, col)
		}
		if !p.accept(tokComma, "") {
			break
		}
	}
	if !p.accept(tokRParen, "") {
		return nil, p.errorf("expected ) closing CREATE TABLE")
	}
	return ct, nil
}

func (p *parser) markPrimary(ct *CreateTableStmt, col string) {
	for i := range ct.Columns {
		if strings.EqualFold(ct.Columns[i].Name, col) {
			ct.Columns[i].PrimaryKey = true
		}
	}
}

func (p *parser) parseParenIdentList() ([]string, error) {
	if !p.accept(tokLParen, "") {
		return nil, p.errorf("expected (")
	}
	var out []string
	for {
		id, err := p.expectIdentLike()
		if err != nil {
			return nil, err
		}
		out = append(out, id)
		if !p.accept(tokComma, "") {
			break
		}
	}
	if !p.accept(tokRParen, "") {
		return nil, p.errorf("expected )")
	}
	return out, nil
}

func (p *parser) parseColumnDef() (ColumnDef, error) {
	var col ColumnDef
	name, err := p.expectIdentLike()
	if err != nil {
		return col, err
	}
	col.Name = name
	col.Type = "TEXT"
	if p.peek().Type == tokKeyword && isTypeKeyword(p.peek().Text) {
		col.Type = normaliseType(p.next().Text)
		// Optional (n) or (p, s) size suffix.
		if p.accept(tokLParen, "") {
			for !p.accept(tokRParen, "") {
				if p.atEOF() {
					return col, p.errorf("unterminated type size")
				}
				p.next()
			}
		}
	}
	// Column constraints.
	for {
		switch {
		case p.acceptKeyword("PRIMARY"):
			if !p.acceptKeyword("KEY") {
				return col, p.errorf("expected KEY after PRIMARY")
			}
			col.PrimaryKey = true
		case p.acceptKeyword("NOT"):
			if !p.acceptKeyword("NULL") {
				return col, p.errorf("expected NULL after NOT")
			}
			col.NotNull = true
		case p.acceptKeyword("UNIQUE"):
			col.Unique = true
		case p.acceptKeyword("DEFAULT"):
			if _, err := p.parsePrimary(); err != nil {
				return col, err
			}
		case p.acceptKeyword("REFERENCES"):
			if _, err := p.expectIdentLike(); err != nil {
				return col, err
			}
			if p.peek().Type == tokLParen {
				if _, err := p.parseParenIdentList(); err != nil {
					return col, err
				}
			}
		default:
			return col, nil
		}
	}
}

func normaliseType(t string) string {
	switch t {
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "BOOLEAN":
		return "INTEGER"
	case "REAL", "FLOAT", "DOUBLE", "NUMERIC", "DECIMAL":
		return "REAL"
	default:
		return "TEXT"
	}
}

func (p *parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if !p.acceptKeyword("INTO") {
		return nil, p.errorf("expected INTO after INSERT")
	}
	table, err := p.expectIdentLike()
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: table}
	if p.peek().Type == tokLParen {
		cols, err := p.parseParenIdentList()
		if err != nil {
			return nil, err
		}
		ins.Columns = cols
	}
	if !p.acceptKeyword("VALUES") {
		return nil, p.errorf("expected VALUES")
	}
	for {
		if !p.accept(tokLParen, "") {
			return nil, p.errorf("expected ( starting VALUES row")
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(tokComma, "") {
				break
			}
		}
		if !p.accept(tokRParen, "") {
			return nil, p.errorf("expected ) closing VALUES row")
		}
		ins.Rows = append(ins.Rows, row)
		if !p.accept(tokComma, "") {
			break
		}
	}
	return ins, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	table, err := p.expectIdentLike()
	if err != nil {
		return nil, err
	}
	if !p.acceptKeyword("SET") {
		return nil, p.errorf("expected SET")
	}
	up := &UpdateStmt{Table: table}
	for {
		col, err := p.expectIdentLike()
		if err != nil {
			return nil, err
		}
		if !p.accept(tokEq, "") {
			return nil, p.errorf("expected = in SET")
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Set = append(up.Set, struct {
			Column string
			Value  Expr
		}{col, val})
		if !p.accept(tokComma, "") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Where = w
	}
	return up, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if !p.acceptKeyword("FROM") {
		return nil, p.errorf("expected FROM after DELETE")
	}
	table, err := p.expectIdentLike()
	if err != nil {
		return nil, err
	}
	del := &DeleteStmt{Table: table}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}

// --- Expressions (precedence climbing) ---

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for {
		// Guard: AND inside BETWEEN is consumed by parseComparison.
		if !p.peekKeyword("AND") {
			return l, nil
		}
		p.next()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
}

func (p *parser) parseNot() (Expr, error) {
	if p.peekKeyword("NOT") && !p.peekAtKeyword(1, "EXISTS") {
		p.next()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		not := false
		if p.peekKeyword("NOT") && (p.peekAtKeyword(1, "IN") || p.peekAtKeyword(1, "LIKE") || p.peekAtKeyword(1, "BETWEEN") || p.peekAtKeyword(1, "GLOB")) {
			p.next()
			not = true
		}
		switch {
		case p.accept(tokEq, ""):
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "=", L: l, R: r}
		case p.accept(tokNeq, ""):
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "!=", L: l, R: r}
		case p.accept(tokLt, ""):
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "<", L: l, R: r}
		case p.accept(tokLte, ""):
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "<=", L: l, R: r}
		case p.accept(tokGt, ""):
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: ">", L: l, R: r}
		case p.accept(tokGte, ""):
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: ">=", L: l, R: r}
		case p.acceptKeyword("IS"):
			isNot := p.acceptKeyword("NOT")
			if !p.acceptKeyword("NULL") {
				return nil, p.errorf("expected NULL after IS")
			}
			l = &IsNullExpr{X: l, Not: isNot}
		case p.acceptKeyword("LIKE"), p.acceptKeyword("GLOB"):
			pat, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if p.acceptKeyword("ESCAPE") {
				if _, err := p.parseAdditive(); err != nil {
					return nil, err
				}
			}
			l = &LikeExpr{X: l, Pattern: pat, Not: not}
		case p.acceptKeyword("BETWEEN"):
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if !p.acceptKeyword("AND") {
				return nil, p.errorf("expected AND in BETWEEN")
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &BetweenExpr{X: l, Lo: lo, Hi: hi, Not: not}
		case p.acceptKeyword("IN"):
			in, err := p.parseInTail(l, not)
			if err != nil {
				return nil, err
			}
			l = in
		default:
			if not {
				return nil, p.errorf("dangling NOT")
			}
			return l, nil
		}
	}
}

func (p *parser) parseInTail(x Expr, not bool) (Expr, error) {
	if !p.accept(tokLParen, "") {
		return nil, p.errorf("expected ( after IN")
	}
	if p.peekKeyword("SELECT") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if !p.accept(tokRParen, "") {
			return nil, p.errorf("expected ) after IN subquery")
		}
		return &InExpr{X: x, Sub: sub, Not: not}, nil
	}
	var list []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if !p.accept(tokComma, "") {
			break
		}
	}
	if !p.accept(tokRParen, "") {
		return nil, p.errorf("expected ) closing IN list")
	}
	return &InExpr{X: x, List: list, Not: not}, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokPlus, ""):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "+", L: l, R: r}
		case p.accept(tokMinus, ""):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "-", L: l, R: r}
		case p.accept(tokConcat, ""):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "||", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokStar, ""):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "*", L: l, R: r}
		case p.accept(tokSlash, ""):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "/", L: l, R: r}
		case p.accept(tokPercent, ""):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "%", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	switch {
	case p.accept(tokMinus, ""):
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	case p.accept(tokPlus, ""):
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	tok := p.peek()
	switch tok.Type {
	case tokNumber:
		p.next()
		if strings.ContainsAny(tok.Text, ".eE") {
			f, err := strconv.ParseFloat(tok.Text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", tok.Text)
			}
			return &Literal{Val: Float(f)}, nil
		}
		i, err := strconv.ParseInt(tok.Text, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(tok.Text, 64)
			if ferr != nil {
				return nil, p.errorf("bad number %q", tok.Text)
			}
			return &Literal{Val: Float(f)}, nil
		}
		return &Literal{Val: Int(i)}, nil
	case tokString:
		p.next()
		return &Literal{Val: Text(tok.Text)}, nil
	case tokLParen:
		p.next()
		if p.peekKeyword("SELECT") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if !p.accept(tokRParen, "") {
				return nil, p.errorf("expected ) after subquery")
			}
			return &SubqueryExpr{Sub: sub}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !p.accept(tokRParen, "") {
			return nil, p.errorf("expected )")
		}
		return e, nil
	case tokKeyword:
		switch tok.Text {
		case "NULL":
			p.next()
			return &Literal{Val: Null()}, nil
		case "TRUE":
			p.next()
			return &Literal{Val: Int(1)}, nil
		case "FALSE":
			p.next()
			return &Literal{Val: Int(0)}, nil
		case "CASE":
			return p.parseCase()
		case "CAST":
			return p.parseCast()
		case "EXISTS":
			p.next()
			return p.parseExistsTail(false)
		case "NOT":
			if p.peekAtKeyword(1, "EXISTS") {
				p.next()
				p.next()
				return p.parseExistsTail(true)
			}
		case "IIF":
			p.next()
			return p.parseFuncArgs("IIF")
		}
		if isNameKeyword(tok.Text) {
			return p.parseIdentExpr()
		}
		return nil, p.errorf("unexpected keyword %q in expression", tok.Text)
	case tokIdent:
		return p.parseIdentExpr()
	case tokStar:
		return nil, p.errorf("unexpected *")
	}
	return nil, p.errorf("unexpected token %q in expression", tok.Text)
}

func (p *parser) parseExistsTail(not bool) (Expr, error) {
	if !p.accept(tokLParen, "") {
		return nil, p.errorf("expected ( after EXISTS")
	}
	sub, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !p.accept(tokRParen, "") {
		return nil, p.errorf("expected ) after EXISTS subquery")
	}
	return &ExistsExpr{Sub: sub, Not: not}, nil
}

func (p *parser) parseCase() (Expr, error) {
	p.next() // CASE
	ce := &CaseExpr{}
	if !p.peekKeyword("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Operand = op
	}
	for p.acceptKeyword("WHEN") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !p.acceptKeyword("THEN") {
			return nil, p.errorf("expected THEN")
		}
		t, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, WhenClause{When: w, Then: t})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errorf("CASE without WHEN")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if !p.acceptKeyword("END") {
		return nil, p.errorf("expected END closing CASE")
	}
	return ce, nil
}

func (p *parser) parseCast() (Expr, error) {
	p.next() // CAST
	if !p.accept(tokLParen, "") {
		return nil, p.errorf("expected ( after CAST")
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.acceptKeyword("AS") {
		return nil, p.errorf("expected AS in CAST")
	}
	t := p.peek()
	if t.Type != tokKeyword || !isTypeKeyword(t.Text) {
		return nil, p.errorf("expected type name in CAST, got %q", t.Text)
	}
	p.next()
	// Optional size suffix.
	if p.accept(tokLParen, "") {
		for !p.accept(tokRParen, "") {
			if p.atEOF() {
				return nil, p.errorf("unterminated CAST type")
			}
			p.next()
		}
	}
	if !p.accept(tokRParen, "") {
		return nil, p.errorf("expected ) closing CAST")
	}
	return &CastExpr{X: x, Type: normaliseType(t.Text)}, nil
}

// parseIdentExpr handles column references (possibly qualified) and
// function calls.
func (p *parser) parseIdentExpr() (Expr, error) {
	name := p.next().Text
	// Function call.
	if p.peek().Type == tokLParen {
		return p.parseFuncArgs(strings.ToUpper(name))
	}
	// Qualified reference: table.column or table.*
	if p.accept(tokDot, "") {
		if p.accept(tokStar, "") {
			// table.* in expression position is only valid inside COUNT();
			// represent as a column ref with Name "*", the evaluator rejects
			// it outside aggregate contexts.
			return &ColumnRef{Table: name, Name: "*"}, nil
		}
		col, err := p.expectIdentLike()
		if err != nil {
			return nil, err
		}
		return &ColumnRef{Table: name, Name: col}, nil
	}
	return &ColumnRef{Name: name}, nil
}

func (p *parser) parseFuncArgs(name string) (Expr, error) {
	if !p.accept(tokLParen, "") {
		return nil, p.errorf("expected ( after function name %s", name)
	}
	fc := &FuncCall{Name: name}
	if p.accept(tokStar, "") {
		fc.Star = true
		if !p.accept(tokRParen, "") {
			return nil, p.errorf("expected ) after %s(*)", name)
		}
		return fc, nil
	}
	if p.accept(tokRParen, "") {
		return fc, nil
	}
	if p.acceptKeyword("DISTINCT") {
		fc.Distinct = true
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fc.Args = append(fc.Args, e)
		if !p.accept(tokComma, "") {
			break
		}
	}
	if !p.accept(tokRParen, "") {
		return nil, p.errorf("expected ) closing %s(...)", name)
	}
	return fc, nil
}

// --- token plumbing ---

func (p *parser) peek() token { return p.peekAt(0) }

func (p *parser) peekAt(n int) token {
	if p.pos+n >= len(p.toks) {
		return token{Type: tokEOF, Pos: len(p.src)}
	}
	return p.toks[p.pos+n]
}

func (p *parser) next() token {
	t := p.peek()
	if p.pos < len(p.toks) {
		p.pos++
	}
	return t
}

func (p *parser) atEOF() bool { return p.peek().Type == tokEOF }

// accept consumes the next token when it matches typ (and, when text is
// non-empty, the exact text).
func (p *parser) accept(typ tokenType, text string) bool {
	t := p.peek()
	if t.Type != typ {
		return false
	}
	if text != "" && t.Text != text {
		return false
	}
	p.next()
	return true
}

func (p *parser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.Type == tokKeyword && t.Text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.Type == tokKeyword && t.Text == kw
}

func (p *parser) peekAtKeyword(n int, kw string) bool {
	t := p.peekAt(n)
	return t.Type == tokKeyword && t.Text == kw
}

// expectIdentLike consumes an identifier, also tolerating keywords used as
// names (common in real schemas: Date, Key, ...).
func (p *parser) expectIdentLike() (string, error) {
	t := p.peek()
	if t.Type == tokIdent {
		p.next()
		return t.Text, nil
	}
	// Allow non-reserved keywords as identifiers.
	if t.Type == tokKeyword && isNameKeyword(t.Text) {
		p.next()
		return t.Text, nil
	}
	return "", p.errorf("expected identifier, got %q", t.Text)
}

// isNameKeyword reports whether kw, though lexed as a keyword, may be used
// as a table or column name (real schemas use Date, Key, Status, ...).
func isNameKeyword(kw string) bool {
	switch kw {
	case "DATE", "DATETIME", "KEY", "SET", "TEXT", "INT", "INTEGER",
		"REAL", "VALUES", "DEFAULT", "NOCASE", "ALL":
		return true
	}
	return false
}

func (p *parser) errorf(format string, args ...any) error {
	pos := p.peek().Pos
	ctx := p.src
	if len(ctx) > 60 {
		start := pos - 20
		if start < 0 {
			start = 0
		}
		end := pos + 30
		if end > len(ctx) {
			end = len(ctx)
		}
		ctx = "..." + ctx[start:end] + "..."
	}
	return fmt.Errorf("sqlengine: parse error at offset %d (%s): %s", pos, ctx, fmt.Sprintf(format, args...))
}
