//go:build !race

package task

const raceEnabled = false
