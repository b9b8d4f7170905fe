//go:build race

package wl

func init() { raceEnabled = true }
