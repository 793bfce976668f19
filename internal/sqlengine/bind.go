package sqlengine

import (
	"fmt"
	"slices"
	"strings"
)

// Name binding. Prepare resolves every name in a statement once, against
// the catalog, before anything runs: each FROM item to its table (or a
// derived table's output columns), each column reference to a scope depth
// and a slot, each `t.*` to its slots and each ORDER BY term to an output
// column or an expression over the FROM row. The rules are SQLite's: the
// innermost level that has a name wins, two matches on one level are an
// "ambiguous column name", and an ORDER BY term is an ordinal, then an
// output column's name, then an expression over the source. A name that
// does not bind — a column, a table, a star's table — fails the statement
// at Prepare, whether or not a row would have reached it. Every other
// error is raised where execution meets it.
//
// A level is what one scope of the executor sees:
//   - a SELECT's FROM row, every item's columns side by side — an ON clause
//     binds while only the items up to its own are on the level;
//   - the empty frame LIMIT and OFFSET are evaluated in;
//   - an UPDATE's or DELETE's table row.
//
// A level's parent is the level the enclosing expression is evaluated in;
// a derived table's is its SELECT's parent, and an INSERT's VALUES have
// none. A reference's depth counts the levels out from where it is
// evaluated, and its slot is its column in that level's FROM row: the same
// slot whichever layout the executor reads it through, a scan of one item
// included (scope.off). A subquery is correlated when a reference in it
// binds to a level outside its own.
//
// planStatement is the bind pass, and plans each SELECT as it binds it.

// boundSelect is what binding fixed of one SELECT core.
type boundSelect struct {
	// from holds the FROM items as they stand on the SELECT's level: each
	// one's name, columns, first slot and table (nil for a derived table).
	from []levelItem
	// columns names the output columns.
	columns []string
	// stars holds, per select item, a star's slots.
	stars [][]int
	// order holds, per ORDER BY term, the output column it names — an
	// in-range ordinal or an output column's name — or -1: an expression.
	// A compound's are its head's, over the compound's output.
	order []int
	// correlated reports that, as a subquery, this SELECT reads its
	// enclosing row: a reference in it binds outside its own levels.
	correlated bool
	// grouped reports that the core aggregates: it has a GROUP BY, or an
	// aggregate call in its select list, HAVING or (but a compound arm's)
	// ORDER BY.
	grouped bool
	// plan is the planner's analysis, which only Stmt.Exec reads.
	plan selectPlan
}

// width is the FROM row's width.
func (b *boundSelect) width() int {
	if len(b.from) == 0 {
		return 0
	}
	last := b.from[len(b.from)-1]
	return last.off + len(last.cols)
}

// level is one scope level names bind in: the FROM items on it, in order.
// abs counts the levels above it.
type level struct {
	items  []levelItem
	parent *level
	abs    int
}

// levelItem is one FROM item on a level: the lower-cased name it is
// addressable by, its lower-cased column names, its first slot, and its
// table, nil for a derived table.
type levelItem struct {
	name string
	cols []string
	off  int
	t    *Table
}

// inner returns a new level whose parent is lv (nil: none).
func inner(lv *level) *level { return &level{parent: lv, abs: below(lv)} }

// below is the abs of a level whose parent is lv.
func below(lv *level) int {
	if lv == nil {
		return 0
	}
	return lv.abs + 1
}

// binder carries the bind pass: the subqueries whose bodies are being
// bound, outermost first, each with the abs of its own outermost level.
type binder struct {
	db   *Database
	subs []openSub
}

type openSub struct {
	sel  *SelectStmt
	base int
}

// planStatement binds every name in st against db and plans every SELECT
// nested anywhere in it (FROM subqueries, IN/EXISTS/scalar subqueries,
// compound arms, DML expressions).
func planStatement(db *Database, st Statement) error {
	bd := &binder{db: db}
	var err error
	switch s := st.(type) {
	case *SelectStmt:
		err = bd.bindSelect(s, nil)
	case *InsertStmt:
		if s.table, err = db.lookupTable(s.Table); err == nil {
			for _, row := range s.Rows {
				if err = bd.bindExprs(nil, row...); err != nil {
					break
				}
			}
		}
	case *UpdateStmt:
		var lv *level
		if s.table, lv, err = bd.bindDML(s.Table, s.Where); err == nil {
			s.cols = make([]int, len(s.Set))
			for i, set := range s.Set {
				if s.cols[i] = s.table.ColumnIndex(set.Column); s.cols[i] < 0 {
					return fmt.Errorf("sqlengine: no such column: %s", set.Column)
				}
				if err = bd.bindExpr(set.Value, lv); err != nil {
					break
				}
			}
		}
	case *DeleteStmt:
		s.table, _, err = bd.bindDML(s.Table, s.Where)
	}
	return err
}

// lookupTable returns the table name names, or the error a statement that
// names a missing one fails with.
func (db *Database) lookupTable(name string) (*Table, error) {
	if t, ok := db.Table(name); ok {
		return t, nil
	}
	return nil, fmt.Errorf("sqlengine: no such table: %s", name)
}

// bindDML binds an UPDATE's or DELETE's table and WHERE, returning the
// level of its rows.
func (bd *binder) bindDML(name string, where Expr) (*Table, *level, error) {
	t, err := bd.db.lookupTable(name)
	if err != nil {
		return nil, nil, err
	}
	lv := &level{items: []levelItem{{name: strings.ToLower(t.Name), cols: t.lowerCols}}}
	return t, lv, bd.bindExpr(where, lv)
}

// bindSelect binds a SELECT whose enclosing level is parent: each compound
// arm on its own, then a compound's ORDER BY against its output names and
// its LIMIT.
func (bd *binder) bindSelect(sel *SelectStmt, parent *level) error {
	for arm := sel; arm != nil; arm = arm.Next {
		if err := bd.bindCore(arm, parent); err != nil {
			return err
		}
	}
	if sel.Compound == CompoundNone {
		return nil
	}
	// An ORDER BY expression names nothing here: evaluating it fails.
	sel.bound.order = orderTerms(sel.OrderBy, sel.bound.columns)
	return bd.bindLimit(sel, parent)
}

// bindLimit binds LIMIT and OFFSET in their empty frame.
func (bd *binder) bindLimit(sel *SelectStmt, parent *level) error {
	if sel.Limit == nil {
		return nil
	}
	return bd.bindExprs(inner(parent), sel.Limit, sel.Offset)
}

// bindCore binds one SELECT core, in the order execution evaluates its
// clauses, and plans it; a compound arm's ORDER BY and LIMIT are the
// compound's.
func (bd *binder) bindCore(sel *SelectStmt, parent *level) error {
	b := &boundSelect{from: make([]levelItem, 0, len(sel.From)), columns: make([]string, 0, len(sel.Columns))}
	sel.bound = b
	lv := inner(parent)
	for i := range sel.From {
		fi := &sel.From[i]
		it := levelItem{name: strings.ToLower(fi.Name()), off: b.width()}
		if fi.Sub != nil {
			if err := bd.bindSelect(fi.Sub, parent); err != nil {
				return err
			}
			it.cols = make([]string, len(fi.Sub.bound.columns))
			for j, c := range fi.Sub.bound.columns {
				it.cols[j] = strings.ToLower(c)
			}
		} else {
			t, err := bd.db.lookupTable(fi.Table)
			if err != nil {
				return err
			}
			it.t, it.cols = t, t.lowerCols
		}
		b.from = append(b.from, it)
		lv.items = b.from
		if err := bd.bindExpr(fi.On, lv); err != nil {
			return err
		}
	}
	if err := bd.bindExpr(sel.Where, lv); err != nil {
		return err
	}
	if err := bd.bindExprs(lv, sel.GroupBy...); err != nil {
		return err
	}
	if err := bd.bindExpr(sel.Having, lv); err != nil {
		return err
	}
	for k, item := range sel.Columns {
		switch {
		case item.Star:
			if b.stars == nil {
				b.stars = make([][]int, len(sel.Columns))
			}
			lt := strings.ToLower(item.StarTable)
			for _, it := range lv.items {
				if lt == "" || it.name == lt {
					for j, c := range it.cols {
						b.stars[k] = append(b.stars[k], it.off+j)
						b.columns = append(b.columns, c)
					}
				}
			}
			if b.stars[k] == nil && lt != "" {
				return fmt.Errorf("sqlengine: no such table: %s", item.StarTable)
			}
		default:
			if err := bd.bindExpr(item.Expr, lv); err != nil {
				return err
			}
			b.columns = append(b.columns, outputName(item))
		}
	}
	// Results share the names: no append may reach past them.
	b.columns = slices.Clip(b.columns)
	if sel.Compound == CompoundNone {
		b.order = orderTerms(sel.OrderBy, b.columns)
		for j, ob := range sel.OrderBy {
			if b.order[j] < 0 {
				if err := bd.bindExpr(ob.Expr, lv); err != nil {
					return err
				}
			}
		}
		if err := bd.bindLimit(sel, parent); err != nil {
			return err
		}
	}
	planSelect(sel)
	return nil
}

// outputName is the name of a select item's output column.
func outputName(item SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	if cr, ok := item.Expr.(*ColumnRef); ok {
		return cr.Name
	}
	return item.Expr.SQL()
}

// orderTerms resolves each ORDER BY term that names an output column: an
// in-range ordinal, or an unqualified name equal to an output column's
// (the first, ignoring case). Any other term is -1.
func orderTerms(terms []OrderItem, columns []string) []int {
	if len(terms) == 0 {
		return nil
	}
	out := make([]int, len(terms))
	for j, ob := range terms {
		out[j] = -1
		switch x := ob.Expr.(type) {
		case *Literal:
			if x.Val.Kind == KindInt && x.Val.I >= 1 && x.Val.I <= int64(len(columns)) {
				out[j] = int(x.Val.I) - 1
			}
		case *ColumnRef:
			if x.Table == "" {
				out[j] = slices.IndexFunc(columns, func(c string) bool { return strings.EqualFold(c, x.Name) })
			}
		}
	}
	return out
}

func (bd *binder) bindExprs(lv *level, es ...Expr) error {
	for _, e := range es {
		if err := bd.bindExpr(e, lv); err != nil {
			return err
		}
	}
	return nil
}

// bindExpr binds every reference in e, evaluated on level lv, and every
// subquery in it, and compiles e for the evaluator: operators to opcodes,
// calls to what they compute, CASTs to a storage class (eval.go).
func (bd *binder) bindExpr(e Expr, lv *level) (err error) {
	switch x := e.(type) {
	case *ColumnRef:
		return bd.bindRef(x, lv)
	case *Unary:
		x.op = unaryOps[x.Op]
	case *Binary:
		x.op = binaryOps[x.Op]
	case *FuncCall:
		resolveCall(x)
	case *ExistsExpr:
		if err := bd.bindSub(x.Sub, lv); err != nil {
			return err
		}
		// Not a compound body: UNION and the rest combine whole arms.
		x.Sub.bound.plan.anyRow = x.Sub.Compound == CompoundNone
	case *SubqueryExpr:
		return bd.bindSub(x.Sub, lv)
	case *CastExpr:
		switch x.to = KindText; x.Type {
		case "INTEGER":
			x.to = KindInt
		case "REAL":
			x.to = KindFloat
		}
	}
	eachOperand(e, func(o Expr) {
		if err == nil {
			err = bd.bindExpr(o, lv)
		}
	})
	if in, ok := e.(*InExpr); ok && err == nil && in.Sub != nil {
		err = bd.bindSub(in.Sub, lv)
	}
	return err
}

// bindSub binds the body of a subquery evaluated on level lv.
func (bd *binder) bindSub(sel *SelectStmt, lv *level) error {
	bd.subs = append(bd.subs, openSub{sel: sel, base: below(lv)})
	err := bd.bindSelect(sel, lv)
	bd.subs = bd.subs[:len(bd.subs)-1]
	return err
}

// bindRef binds a column reference evaluated on level lv to the innermost
// level that has its name, and marks every open subquery it reaches out of
// correlated. `t.*` outside COUNT() binds to depth -1: evaluating it fails.
func (bd *binder) bindRef(cr *ColumnRef, lv *level) error {
	if cr.Name == "*" {
		cr.depth = -1
		return nil
	}
	lt, ln := strings.ToLower(cr.Table), strings.ToLower(cr.Name)
	for cur, depth := lv, 0; cur != nil; cur, depth = cur.parent, depth+1 {
		slot := -1
		for _, it := range cur.items {
			if lt != "" && it.name != lt {
				continue
			}
			for j, c := range it.cols {
				if c != ln {
					continue
				}
				if slot >= 0 {
					return fmt.Errorf("sqlengine: ambiguous column name %q", cr.Name)
				}
				slot = it.off + j
			}
		}
		if slot < 0 {
			continue
		}
		cr.depth, cr.slot = depth, slot
		for i := len(bd.subs) - 1; i >= 0 && bd.subs[i].base > cur.abs; i-- {
			bd.subs[i].sel.bound.correlated = true
		}
		return nil
	}
	if cr.Table != "" {
		return fmt.Errorf("sqlengine: no such column: %s.%s", cr.Table, cr.Name)
	}
	return fmt.Errorf("sqlengine: no such column: %s", cr.Name)
}
