//go:build race

package realswitch

// raceEnabled reports a race-detector build, under which sync.Pool
// drops a random share of Puts and pooled paths allocate.
const raceEnabled = true
