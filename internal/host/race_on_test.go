//go:build race

package host

// raceEnabled: the race detector makes sync.Pool drop a quarter of what is
// Put, so steady-state allocation budgets cannot be measured under it.
const raceEnabled = true
