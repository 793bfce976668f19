package sqlengine

// PrepareUncached is Prepare without the plan cache: a parse, the bind pass
// and planning on every call, which is what a statement costs the first
// time it is seen.
func PrepareUncached(db *Database, sql string) error {
	ast, err := Parse(sql)
	if err != nil {
		return err
	}
	return planStatement(db, ast)
}
