package incremental

// Enumerated returns the number of matches the detector's guarded
// enumerations have yielded since construction: the initial sweep's plus
// every Apply's delta enumerations.
func (d *Detector) Enumerated() int { return d.enumerated }
