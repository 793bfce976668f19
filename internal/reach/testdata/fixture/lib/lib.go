// Package lib holds one case of each kind the reach probe decides.
package lib

// Dead is referenced by nothing.
func Dead() int { return OnlyDeadCalls() }

// OnlyDeadCalls is referenced only by Dead, which nothing reaches: the
// fixed point leaves both out.
func OnlyDeadCalls() int { return 1 }

// Shape is used by main, so its method set is reached by name.
type Shape interface{ Area() int }

// Square's Area is reached only through Shape.
type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

// Box's method is reached through an instantiation, Box[int].
type Box[T any] struct{ v T }

func NewBox[T any](v T) Box[T] { return Box[T]{v} }

func (b Box[T]) Value() T { return b.v }

// Kept is reached by nothing but named in reach.allow.
func Kept() {}

// Options has one field main sets and one nothing sets.
type Options struct {
	Set   int
	Unset bool
}

// Open reads both fields.
func Open(o Options) int {
	if o.Unset {
		return 0
	}
	return o.Set + lockFile()
}
