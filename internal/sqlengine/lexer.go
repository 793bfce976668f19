package sqlengine

import (
	"fmt"
	"strings"
)

// lexer splits a SQL statement into tokens. It handles single-quoted
// strings with ” escapes, double-quoted and backquoted identifiers
// (SQLite/MySQL style), square-bracket identifiers, line comments (--) and
// block comments (/* */).
type lexer struct {
	src string
	pos int
}

// newLexer returns a lexer over src.
func newLexer(src string) *lexer { return &lexer{src: src} }

// tokenize runs the lexer to completion, returning all tokens excluding the
// trailing EOF. It is the convenience entry point used by the parser.
func tokenize(src string) ([]token, error) {
	lx := newLexer(src)
	var toks []token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		if t.Type == tokEOF {
			return toks, nil
		}
		toks = append(toks, t)
	}
}

// Next returns the next token, or a tokEOF token at end of input.
func (lx *lexer) Next() (token, error) {
	lx.skipSpaceAndComments()
	if lx.pos >= len(lx.src) {
		return token{Type: tokEOF, Pos: lx.pos}, nil
	}
	start := lx.pos
	c := lx.src[lx.pos]
	switch {
	case c == '\'':
		s, err := lx.readString('\'')
		if err != nil {
			return token{}, err
		}
		return token{Type: tokString, Text: s, Pos: start}, nil
	case c == '"':
		s, err := lx.readString('"')
		if err != nil {
			return token{}, err
		}
		return token{Type: tokIdent, Text: s, Pos: start}, nil
	case c == '`':
		s, err := lx.readString('`')
		if err != nil {
			return token{}, err
		}
		return token{Type: tokIdent, Text: s, Pos: start}, nil
	case c == '[':
		end := strings.IndexByte(lx.src[lx.pos:], ']')
		if end < 0 {
			return token{}, fmt.Errorf("sqlengine: unterminated [identifier] at offset %d", start)
		}
		text := lx.src[lx.pos+1 : lx.pos+end]
		lx.pos += end + 1
		return token{Type: tokIdent, Text: text, Pos: start}, nil
	case isDigit(c) || (c == '.' && lx.pos+1 < len(lx.src) && isDigit(lx.src[lx.pos+1])):
		return lx.readNumber(), nil
	case isIdentStart(c):
		return lx.readWord(), nil
	}
	// Operators and punctuation.
	two := ""
	if lx.pos+1 < len(lx.src) {
		two = lx.src[lx.pos : lx.pos+2]
	}
	switch two {
	case "<=":
		lx.pos += 2
		return token{Type: tokLte, Text: "<=", Pos: start}, nil
	case ">=":
		lx.pos += 2
		return token{Type: tokGte, Text: ">=", Pos: start}, nil
	case "<>", "!=":
		lx.pos += 2
		return token{Type: tokNeq, Text: "!=", Pos: start}, nil
	case "||":
		lx.pos += 2
		return token{Type: tokConcat, Text: "||", Pos: start}, nil
	case "==":
		lx.pos += 2
		return token{Type: tokEq, Text: "=", Pos: start}, nil
	}
	lx.pos++
	switch c {
	case ',':
		return token{Type: tokComma, Text: ",", Pos: start}, nil
	case '.':
		return token{Type: tokDot, Text: ".", Pos: start}, nil
	case ';':
		return token{Type: tokSemicolon, Text: ";", Pos: start}, nil
	case '(':
		return token{Type: tokLParen, Text: "(", Pos: start}, nil
	case ')':
		return token{Type: tokRParen, Text: ")", Pos: start}, nil
	case '*':
		return token{Type: tokStar, Text: "*", Pos: start}, nil
	case '+':
		return token{Type: tokPlus, Text: "+", Pos: start}, nil
	case '-':
		return token{Type: tokMinus, Text: "-", Pos: start}, nil
	case '/':
		return token{Type: tokSlash, Text: "/", Pos: start}, nil
	case '%':
		return token{Type: tokPercent, Text: "%", Pos: start}, nil
	case '=':
		return token{Type: tokEq, Text: "=", Pos: start}, nil
	case '<':
		return token{Type: tokLt, Text: "<", Pos: start}, nil
	case '>':
		return token{Type: tokGt, Text: ">", Pos: start}, nil
	}
	return token{}, fmt.Errorf("sqlengine: unexpected character %q at offset %d", c, start)
}

func (lx *lexer) skipSpaceAndComments() {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			lx.pos++
		case c == '-' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '-':
			nl := strings.IndexByte(lx.src[lx.pos:], '\n')
			if nl < 0 {
				lx.pos = len(lx.src)
			} else {
				lx.pos += nl + 1
			}
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '*':
			end := strings.Index(lx.src[lx.pos+2:], "*/")
			if end < 0 {
				lx.pos = len(lx.src)
			} else {
				lx.pos += end + 4
			}
		default:
			return
		}
	}
}

// readString consumes a quoted literal delimited by quote, handling doubled
// quotes as escapes (” -> ').
func (lx *lexer) readString(quote byte) (string, error) {
	start := lx.pos
	lx.pos++ // opening quote
	var b strings.Builder
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == quote {
			if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == quote {
				b.WriteByte(quote)
				lx.pos += 2
				continue
			}
			lx.pos++
			return b.String(), nil
		}
		b.WriteByte(c)
		lx.pos++
	}
	return "", fmt.Errorf("sqlengine: unterminated string starting at offset %d", start)
}

func (lx *lexer) readNumber() token {
	start := lx.pos
	seenDot, seenExp := false, false
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case isDigit(c):
			lx.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			lx.pos++
		case (c == 'e' || c == 'E') && !seenExp && lx.pos > start:
			seenExp = true
			lx.pos++
			if lx.pos < len(lx.src) && (lx.src[lx.pos] == '+' || lx.src[lx.pos] == '-') {
				lx.pos++
			}
		default:
			return token{Type: tokNumber, Text: lx.src[start:lx.pos], Pos: start}
		}
	}
	return token{Type: tokNumber, Text: lx.src[start:lx.pos], Pos: start}
}

func (lx *lexer) readWord() token {
	start := lx.pos
	for lx.pos < len(lx.src) && isIdentPart(lx.src[lx.pos]) {
		lx.pos++
	}
	word := lx.src[start:lx.pos]
	upper := strings.ToUpper(word)
	if keywords[upper] {
		return token{Type: tokKeyword, Text: upper, Pos: start}
	}
	return token{Type: tokIdent, Text: word, Pos: start}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }
