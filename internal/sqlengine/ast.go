package sqlengine

import "strings"

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Expr is any parsed SQL expression.
type Expr interface {
	expr()
	// SQL renders the expression back to SQL text; used for error messages,
	// evidence composition, and schema-linking extraction by the baselines.
	SQL() string
}

// JoinType enumerates supported join flavours.
type JoinType int

// Join flavours. JoinNone marks the first item of a FROM chain.
const (
	JoinNone JoinType = iota
	JoinInner
	JoinLeft
	JoinCross
)

func (j JoinType) String() string {
	switch j {
	case JoinInner:
		return "JOIN"
	case JoinLeft:
		return "LEFT JOIN"
	case JoinCross:
		return "CROSS JOIN"
	default:
		return ""
	}
}

// FromItem is one element of a FROM chain: either a base table or a
// subquery, with an optional alias and (for items after the first) the join
// type and ON condition linking it to the preceding items.
type FromItem struct {
	Table string
	Sub   *SelectStmt
	Alias string
	Join  JoinType
	On    Expr
}

// Name returns the name this item is addressable by in column references.
func (f *FromItem) Name() string {
	if f.Alias != "" {
		return f.Alias
	}
	return f.Table
}

// SelectItem is one projected column: an expression with an optional alias,
// or a star (all columns, optionally qualified by a table name).
type SelectItem struct {
	Expr      Expr
	Alias     string
	Star      bool
	StarTable string
}

// OrderItem is one ORDER BY term.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// CompoundOp is a set operator combining two SELECTs.
type CompoundOp int

// Compound select operators.
const (
	CompoundNone CompoundOp = iota
	CompoundUnion
	CompoundUnionAll
	CompoundExcept
	CompoundIntersect
)

// SelectStmt is a parsed SELECT, possibly compound (UNION/EXCEPT/INTERSECT
// chain hangs off Compound/Next).
type SelectStmt struct {
	Distinct bool
	Columns  []SelectItem
	From     []FromItem
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    Expr
	Offset   Expr
	Compound CompoundOp
	Next     *SelectStmt

	bound *boundSelect // set by Prepare (bind.go)
}

func (*SelectStmt) stmt() {}

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       string // normalised: INTEGER, REAL or TEXT
	PrimaryKey bool
	NotNull    bool
	Unique     bool
}

// ForeignKeyDef records a FOREIGN KEY ... REFERENCES clause. The engine does
// not enforce it, but SEED's schema serialisation and the deepseek variant's
// join-path clauses read these.
type ForeignKeyDef struct {
	Column       string
	ParentTable  string
	ParentColumn string
}

// CreateTableStmt is a parsed CREATE TABLE.
type CreateTableStmt struct {
	Name        string
	Columns     []ColumnDef
	ForeignKeys []ForeignKeyDef
}

func (*CreateTableStmt) stmt() {}

// InsertStmt is a parsed INSERT INTO ... VALUES.
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr

	table *Table // bound at Prepare
}

func (*InsertStmt) stmt() {}

// UpdateStmt is a parsed UPDATE ... SET ... WHERE.
type UpdateStmt struct {
	Table string
	Set   []struct {
		Column string
		Value  Expr
	}
	Where Expr

	table *Table // bound at Prepare, with each Set column's position
	cols  []int
}

func (*UpdateStmt) stmt() {}

// DeleteStmt is a parsed DELETE FROM ... WHERE.
type DeleteStmt struct {
	Table string
	Where Expr

	table *Table // bound at Prepare
}

func (*DeleteStmt) stmt() {}

// --- Expressions ---

// ColumnRef references a column, optionally qualified by table or alias.
// Table and Name keep the statement's spelling (SQL and output column names
// print them). Prepare binds the reference, case-insensitively, to the row
// depth scope levels out from where it is evaluated, and to column slot of
// that level's FROM row (bind.go).
type ColumnRef struct {
	Table string
	Name  string

	depth, slot int
}

func (*ColumnRef) expr() {}

// SQL implements Expr.
func (c *ColumnRef) SQL() string {
	if c.Table != "" {
		return quoteIdent(c.Table) + "." + quoteIdent(c.Name)
	}
	return quoteIdent(c.Name)
}

// Literal is a constant value.
type Literal struct{ Val Value }

func (*Literal) expr() {}

// SQL implements Expr.
func (l *Literal) SQL() string { return l.Val.String() }

// Unary is a prefix operator: "-", "+" or "NOT". Prepare resolves Op to
// its opcode (eval.go).
type Unary struct {
	Op string
	X  Expr

	op opcode
}

func (*Unary) expr() {}

// SQL implements Expr.
func (u *Unary) SQL() string { return u.Op + " " + u.X.SQL() }

// Binary is an infix operator: arithmetic, comparison, AND/OR, or "||".
// Prepare resolves Op to its opcode (eval.go).
type Binary struct {
	Op   string
	L, R Expr

	op opcode
}

func (*Binary) expr() {}

// SQL implements Expr.
func (b *Binary) SQL() string { return "(" + b.L.SQL() + " " + b.Op + " " + b.R.SQL() + ")" }

// FuncCall is a function invocation. Star marks COUNT(*); Distinct marks
// COUNT(DISTINCT x) and friends. Prepare resolves the call to the aggregate
// it computes or, for any other call, to its scalar function (resolveCall).
type FuncCall struct {
	Name     string // upper-case
	Args     []Expr
	Star     bool
	Distinct bool

	agg aggFn
	fn  *scalarFunc
}

func (*FuncCall) expr() {}

// SQL implements Expr.
func (f *FuncCall) SQL() string {
	if f.Star {
		return f.Name + "(*)"
	}
	var parts []string
	for _, a := range f.Args {
		parts = append(parts, a.SQL())
	}
	inner := strings.Join(parts, ", ")
	if f.Distinct {
		inner = "DISTINCT " + inner
	}
	return f.Name + "(" + inner + ")"
}

// WhenClause is one WHEN ... THEN ... arm of a CASE.
type WhenClause struct {
	When Expr
	Then Expr
}

// CaseExpr is a CASE expression, with or without an operand.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []WhenClause
	Else    Expr
}

func (*CaseExpr) expr() {}

// SQL implements Expr.
func (c *CaseExpr) SQL() string {
	var b strings.Builder
	b.WriteString("CASE")
	if c.Operand != nil {
		b.WriteString(" " + c.Operand.SQL())
	}
	for _, w := range c.Whens {
		b.WriteString(" WHEN " + w.When.SQL() + " THEN " + w.Then.SQL())
	}
	if c.Else != nil {
		b.WriteString(" ELSE " + c.Else.SQL())
	}
	b.WriteString(" END")
	return b.String()
}

// InExpr is "x [NOT] IN (list)" or "x [NOT] IN (subquery)".
type InExpr struct {
	X    Expr
	List []Expr
	Sub  *SelectStmt
	Not  bool
}

func (*InExpr) expr() {}

// SQL implements Expr.
func (i *InExpr) SQL() string {
	op := " IN "
	if i.Not {
		op = " NOT IN "
	}
	if i.Sub != nil {
		return i.X.SQL() + op + "(" + i.Sub.SQL() + ")"
	}
	var parts []string
	for _, e := range i.List {
		parts = append(parts, e.SQL())
	}
	return i.X.SQL() + op + "(" + strings.Join(parts, ", ") + ")"
}

// BetweenExpr is "x [NOT] BETWEEN lo AND hi".
type BetweenExpr struct {
	X, Lo, Hi Expr
	Not       bool
}

func (*BetweenExpr) expr() {}

// SQL implements Expr.
func (b *BetweenExpr) SQL() string {
	op := " BETWEEN "
	if b.Not {
		op = " NOT BETWEEN "
	}
	return b.X.SQL() + op + b.Lo.SQL() + " AND " + b.Hi.SQL()
}

// LikeExpr is "x [NOT] LIKE pattern".
type LikeExpr struct {
	X, Pattern Expr
	Not        bool
}

func (*LikeExpr) expr() {}

// SQL implements Expr.
func (l *LikeExpr) SQL() string {
	op := " LIKE "
	if l.Not {
		op = " NOT LIKE "
	}
	return l.X.SQL() + op + l.Pattern.SQL()
}

// IsNullExpr is "x IS [NOT] NULL".
type IsNullExpr struct {
	X   Expr
	Not bool
}

func (*IsNullExpr) expr() {}

// SQL implements Expr.
func (i *IsNullExpr) SQL() string {
	if i.Not {
		return i.X.SQL() + " IS NOT NULL"
	}
	return i.X.SQL() + " IS NULL"
}

// ExistsExpr is "[NOT] EXISTS (subquery)".
type ExistsExpr struct {
	Sub *SelectStmt
	Not bool
}

func (*ExistsExpr) expr() {}

// SQL implements Expr.
func (e *ExistsExpr) SQL() string {
	if e.Not {
		return "NOT EXISTS (" + e.Sub.SQL() + ")"
	}
	return "EXISTS (" + e.Sub.SQL() + ")"
}

// SubqueryExpr is a scalar subquery in expression position.
type SubqueryExpr struct{ Sub *SelectStmt }

func (*SubqueryExpr) expr() {}

// SQL implements Expr.
func (s *SubqueryExpr) SQL() string { return "(" + s.Sub.SQL() + ")" }

// CastExpr is CAST(x AS type). Prepare resolves Type to the storage class
// to.
type CastExpr struct {
	X    Expr
	Type string // normalised INTEGER/REAL/TEXT

	to Kind
}

func (*CastExpr) expr() {}

// SQL implements Expr.
func (c *CastExpr) SQL() string { return "CAST(" + c.X.SQL() + " AS " + c.Type + ")" }

// quoteIdent backquotes an identifier when it contains characters that would
// not re-lex as a bare identifier.
func quoteIdent(s string) string {
	for i := 0; i < len(s); i++ {
		if !isIdentPart(s[i]) {
			return "`" + s + "`"
		}
	}
	if s == "" || keywords[strings.ToUpper(s)] || isDigit(s[0]) {
		return "`" + s + "`"
	}
	return s
}

// eachOperand calls f on each operand of e, in the order the evaluator
// reads them, and not into a subquery's body, a statement of its own.
func eachOperand(e Expr, f func(Expr)) {
	switch x := e.(type) {
	case *Unary:
		f(x.X)
	case *Binary:
		f(x.L)
		f(x.R)
	case *FuncCall:
		for _, a := range x.Args {
			f(a)
		}
	case *CaseExpr:
		if x.Operand != nil {
			f(x.Operand)
		}
		for _, w := range x.Whens {
			f(w.When)
			f(w.Then)
		}
		if x.Else != nil {
			f(x.Else)
		}
	case *BetweenExpr:
		f(x.X)
		f(x.Lo)
		f(x.Hi)
	case *LikeExpr:
		f(x.X)
		f(x.Pattern)
	case *IsNullExpr:
		f(x.X)
	case *InExpr:
		f(x.X)
		for _, le := range x.List {
			f(le)
		}
	case *CastExpr:
		f(x.X)
	}
}
