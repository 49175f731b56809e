//go:build !race

package cluster

// raceEnabled reports that this test binary was built with the race
// detector, which instruments allocations and makes
// testing.AllocsPerRun meaningless.
const raceEnabled = false
