package incremental

import "gfd/internal/core"

// Enumerated returns the number of matches the detector's guarded
// enumerations have yielded since construction: the initial sweep's plus
// every Apply's delta enumerations.
func (d *Detector) Enumerated() int { return d.enumerated }

// Programs returns the literal programs the detector read from its bundle,
// in rule order.
func (d *Detector) Programs() []*core.LiteralProgram { return d.progs }

// Plans returns the plan-cache misses of the rule side of the detector's
// bundle so far.
func (d *Detector) Plans() int { return d.b.Plans().Misses() }
