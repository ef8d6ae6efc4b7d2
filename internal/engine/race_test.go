//go:build race

package engine

func init() { raceEnabled = true }
