//go:build race

package soda_test

// Under the race detector sync.Pool drops items at random, so allocation
// counts drift from run to run.
func init() { raceEnabled = true }
