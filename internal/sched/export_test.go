package sched

// AbandonedCount returns the number of workers currently parked by
// abandonment injection.
func AbandonedCount() int64 {
	if run := activeRun.Load(); run != nil {
		return run.abandoned.Load()
	}
	return 0
}
