//go:build race

package jrpm_test

func init() { raceEnabled = true }
