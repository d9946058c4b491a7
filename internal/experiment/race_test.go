//go:build race

package experiment

// The race runtime allocates where a normal build does not, so heap
// object counts measured in a -race build are not the build's counts.
func init() { raceBuild = true }
