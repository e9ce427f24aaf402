//go:build race

package serve

// raceEnabled reports a -race build, in which sync.Pool drops a share of
// the objects put back at random.
const raceEnabled = true
