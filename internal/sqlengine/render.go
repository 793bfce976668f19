package sqlengine

import (
	"fmt"
	"strings"
)

// SQL renders the statement back to executable SQL text. Together with
// Expr.SQL it gives callers (the dataset's corruption variants, RSL-SQL's
// backward schema linking) a parse → transform → render path.
func (s *SelectStmt) SQL() string {
	var b strings.Builder
	s.writeCore(&b)
	for cur := s; cur.Compound != CompoundNone; cur = cur.Next {
		switch cur.Compound {
		case CompoundUnion:
			b.WriteString(" UNION ")
		case CompoundUnionAll:
			b.WriteString(" UNION ALL ")
		case CompoundExcept:
			b.WriteString(" EXCEPT ")
		case CompoundIntersect:
			b.WriteString(" INTERSECT ")
		}
		cur.Next.writeCore(&b)
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, ob := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(ob.Expr.SQL())
			if ob.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit != nil {
		fmt.Fprintf(&b, " LIMIT %s", s.Limit.SQL())
		if s.Offset != nil {
			fmt.Fprintf(&b, " OFFSET %s", s.Offset.SQL())
		}
	}
	return b.String()
}

func (s *SelectStmt) writeCore(b *strings.Builder) {
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, item := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case item.Star && item.StarTable != "":
			b.WriteString(quoteIdent(item.StarTable) + ".*")
		case item.Star:
			b.WriteString("*")
		default:
			b.WriteString(item.Expr.SQL())
			if item.Alias != "" {
				b.WriteString(" AS " + quoteIdent(item.Alias))
			}
		}
	}
	if len(s.From) > 0 {
		b.WriteString(" FROM ")
		for i, f := range s.From {
			if i > 0 {
				if f.Join == JoinCross {
					b.WriteString(" CROSS JOIN ")
				} else {
					b.WriteString(" " + f.Join.String() + " ")
				}
			}
			if f.Sub != nil {
				b.WriteString("(" + f.Sub.SQL() + ")")
			} else {
				b.WriteString(quoteIdent(f.Table))
			}
			if f.Alias != "" && f.Alias != f.Table {
				b.WriteString(" AS " + quoteIdent(f.Alias))
			}
			if f.On != nil {
				b.WriteString(" ON " + f.On.SQL())
			}
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.SQL())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.SQL())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + s.Having.SQL())
	}
}
