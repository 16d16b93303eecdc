//go:build race

package server

// The race detector makes sync.Pool drop a share of its Puts on purpose,
// so pooled paths allocate under -race and allocation budgets do not hold.
func init() { raceEnabled = true }
