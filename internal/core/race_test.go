//go:build race

package core

// The race runtime turns off the compiler's elision of the temporary in
// append(s, make([]T, n)...), which the table's memo reserve uses, so a
// -race build allocates more than a normal one and allocation counts
// pinned above zero do not hold there.
func init() { raceBuild = true }
