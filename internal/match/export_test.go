package match

// Tries reports the candidate tries the matcher has made while an
// Options.Halt probe was armed: the counter that strides the probe.
func (m *Matcher) Tries() uint32 { return m.tick }
