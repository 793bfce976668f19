package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Attr is one span attribute: a key and a scalar value kept unboxed.
type Attr struct {
	Key  string
	str  string
	num  uint64 // a bool's 0/1, an integer's bits, a float64's bits
	kind attrKind
	span int32 // the owning span's slot while its trace is live
}

type attrKind uint8

const (
	attrString attrKind = iota + 1
	attrBool
	attrInt
	attrInt64
	attrFloat
)

// Value returns the attribute's value as the type it was set with (a
// decoded record's numbers are float64, as encoding/json decodes them).
func (a Attr) Value() any {
	switch a.kind {
	case attrString:
		return a.str
	case attrBool:
		return a.num != 0
	case attrInt:
		return int(a.num)
	case attrInt64:
		return int64(a.num)
	case attrFloat:
		return math.Float64frombits(a.num)
	}
	return nil
}

// Attrs is a span's attributes in the order their keys were first set.
// They encode as one JSON object with sorted keys.
type Attrs []Attr

// Get returns the value of key, or nil when the span has none.
func (as Attrs) Get(key string) any {
	for _, a := range as {
		if a.Key == key {
			return a.Value()
		}
	}
	return nil
}

// Str returns key's value when it is a string.
func (as Attrs) Str(key string) (string, bool) {
	for _, a := range as {
		if a.Key == key {
			return a.str, a.kind == attrString
		}
	}
	return "", false
}

// put sets a into a live trace's list: it replaces the value of the same
// span and key, or is appended.
func (as *Attrs) put(a Attr) {
	for i := range *as {
		if p := &(*as)[i]; p.span == a.span && p.Key == a.Key {
			*p = a
			return
		}
	}
	*as = append(*as, a)
}

// sorted returns the attributes ordered by key.
func (as Attrs) sorted() Attrs {
	out := slices.Clone(as)
	slices.SortFunc(out, func(a, b Attr) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// MarshalJSON encodes the attributes as the JSON object encoding/json
// writes for a map of their values. HTML characters are left to the
// outer encoder, which escapes them iff it escapes its own.
func (as Attrs) MarshalJSON() ([]byte, error) {
	m := make(map[string]any, len(as))
	for _, a := range as {
		m[a.Key] = a.Value()
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(m); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte{'\n'}), nil
}

// UnmarshalJSON decodes an object of scalars, keys in sorted order.
func (as *Attrs) UnmarshalJSON(data []byte) error {
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	out := make(Attrs, 0, len(m))
	for k, v := range m {
		a := Attr{Key: k}
		switch v := v.(type) {
		case string:
			a.kind, a.str = attrString, v
		case bool:
			a.kind = attrBool
			if v {
				a.num = 1
			}
		case float64:
			a.kind, a.num = attrFloat, math.Float64bits(v)
		default:
			return fmt.Errorf("obs: span attribute %q is not a scalar", k)
		}
		out = append(out, a)
	}
	*as = out.sorted()
	return nil
}
