package epoch

// SnapPinned returns the number of live snapshot pins.
func SnapPinned() int64 { return snapCount.Load() }
