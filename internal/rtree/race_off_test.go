//go:build !race

package rtree

const raceEnabled = false
