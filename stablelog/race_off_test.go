//go:build !race

package stablelog_test

const raceEnabled = false
