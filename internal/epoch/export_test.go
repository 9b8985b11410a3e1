package epoch

import "time"

// setStallAfter sets the stall bound Retire evicts at to d, so a test need
// not wait out stallAfter, and returns a function that restores it.
func setStallAfter(d time.Duration) (restore func()) {
	stall.Lock()
	defer stall.Unlock()
	old := stall.after
	stall.after = d
	return func() {
		stall.Lock()
		defer stall.Unlock()
		stall.after = old
	}
}
