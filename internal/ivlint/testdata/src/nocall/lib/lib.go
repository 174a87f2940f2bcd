// Package lib is the nocaller golden package. Package nocall/app imports
// it, and app's references count.
package lib

// Used is called from app.
func Used() int { return helper() }

// helper is called from Used.
func helper() int { return 1 }

// Unused has no caller.
func Unused() {} // want `Unused has no caller outside tests`

// selfOnly calls nobody but itself.
func selfOnly(n int) int { // want `selfOnly has no caller`
	if n == 0 {
		return 0
	}
	return selfOnly(n - 1)
}

// Value is taken as a function value in app.
func Value() {}

// T is a type whose methods app reaches in several ways.
type T struct{}

// Called is called on a value in app.
func (T) Called() {}

// Expr is taken as a method expression in app.
func (*T) Expr() {}

// Dead is a method nothing names.
func (*T) Dead() {} // want `\(\*T\)\.Dead has no caller`

// String satisfies Stringer: dynamic dispatch calls it.
func (T) String() string { return "t" }

// Error satisfies the predeclared error.
func (*T) Error() string { return "t" }

// Unwrap satisfies the interface errors.Unwrap asserts.
func (*T) Unwrap() error { return nil }

// Area satisfies Shape, declared below.
func (T) Area() float64 { return 0 }

// Len shares its name with a method of Sized, which T does not satisfy.
func (T) Len() int { return 0 } // want `T\.Len has no caller`

// Stringer is satisfied by T.
type Stringer interface{ String() string }

// Shape is satisfied by T.
type Shape interface{ Area() float64 }

// Sized is not satisfied by T, which has no Cap.
type Sized interface {
	Len() int
	Cap() int
}

// Allowed has no caller, by design.
//
//ivlint:allow nocaller — golden: a deliberate exception
func Allowed() {}

func init() {}
