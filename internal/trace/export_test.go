package trace

// SweepWith is Sweep with the recording's decoder constructor supplied
// by the caller.
var SweepWith = sweep
