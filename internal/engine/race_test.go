//go:build race

package engine

// raceEnabled reports a race-detector build. Its sync.Pool drops a random
// quarter of what is Put, so the allocation budgets allow more there.
const raceEnabled = true
