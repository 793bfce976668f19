package sqlengine

import "fmt"

// tokenType classifies lexical tokens produced by the lexer.
type tokenType int

// Token types. Keywords are folded into tokKeyword with the upper-cased
// keyword text in token.Text; operators get dedicated types so the parser
// can switch on them cheaply.
const (
	tokEOF tokenType = iota
	tokIdent
	tokKeyword
	tokString
	tokNumber
	tokComma
	tokDot
	tokSemicolon
	tokLParen
	tokRParen
	tokStar
	tokPlus
	tokMinus
	tokSlash
	tokPercent
	tokConcat // ||
	tokEq
	tokNeq
	tokLt
	tokLte
	tokGt
	tokGte
)

// token is one lexical unit of a SQL statement. Pos is the byte offset of
// the token's first character in the input, used for error messages.
type token struct {
	Type tokenType
	Text string
	Pos  int
}

func (t token) String() string {
	return fmt.Sprintf("%v(%q)", t.Type, t.Text)
}

// keywords is the set of reserved words recognised by the lexer. Identifiers
// matching these (case-insensitively) become tokKeyword tokens with
// upper-cased text.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "OFFSET": true,
	"ASC": true, "DESC": true, "DISTINCT": true, "ALL": true,
	"AS": true, "JOIN": true, "INNER": true, "LEFT": true, "RIGHT": true,
	"OUTER": true, "CROSS": true, "ON": true, "USING": true,
	"AND": true, "OR": true, "NOT": true, "IN": true, "IS": true,
	"NULL": true, "LIKE": true, "BETWEEN": true, "EXISTS": true,
	"CASE": true, "WHEN": true, "THEN": true, "ELSE": true, "END": true,
	"CAST": true, "CREATE": true, "TABLE": true, "PRIMARY": true,
	"KEY": true, "FOREIGN": true, "REFERENCES": true, "UNIQUE": true,
	"INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true,
	"SET": true, "DELETE": true, "INTEGER": true, "INT": true,
	"REAL": true, "TEXT": true, "VARCHAR": true, "CHAR": true,
	"FLOAT": true, "DOUBLE": true, "NUMERIC": true, "DECIMAL": true,
	"BOOLEAN": true, "DATE": true, "DATETIME": true, "BIGINT": true,
	"SMALLINT": true, "TRUE": true, "FALSE": true, "DEFAULT": true,
	"UNION": true, "EXCEPT": true, "INTERSECT": true, "ESCAPE": true,
	"IIF": true, "GLOB": true, "COLLATE": true, "NOCASE": true,
}

// TypeName reports whether kw (upper-case) is a SQL column type name; the
// parser uses this when reading CREATE TABLE column definitions.
func isTypeKeyword(kw string) bool {
	switch kw {
	case "INTEGER", "INT", "REAL", "TEXT", "VARCHAR", "CHAR", "FLOAT",
		"DOUBLE", "NUMERIC", "DECIMAL", "BOOLEAN", "DATE", "DATETIME",
		"BIGINT", "SMALLINT":
		return true
	}
	return false
}
