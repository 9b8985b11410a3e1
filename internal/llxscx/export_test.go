package llxscx

// Valid reports whether the Linked value was produced by a successful LLX.
func (l Linked[N]) Valid() bool { return l.ev.rec != nil }
