//go:build !race

package realswitch

const raceEnabled = false
