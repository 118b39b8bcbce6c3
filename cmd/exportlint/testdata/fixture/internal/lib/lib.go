// Package lib is the surface scan's fixture.
package lib

// Used is called by cmd/app.
func Used() *Hidden { return &Hidden{} }

// Unused is called by nothing outside lib.
func Unused() {}

// Hidden is named only in lib, but Used returns it.
type Hidden struct{}

// T is named by cmd/app.
type T struct{}

// Own is called only by lib itself.
func (T) Own() {}

// Called is called by cmd/app.
func (T) Called() {}

func (t T) String() string { t.Own(); return "" }
