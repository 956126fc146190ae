package sweep

import "io"

// RunOne runs one cell of spec as Run does, also writing its frame log to
// trace.
func RunOne(spec Spec, key RunKey, trace io.Writer) RunResult { return runOne(spec, key, trace) }
