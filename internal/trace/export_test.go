package trace

// SweepWith is Sweep with the recording's decoder constructor supplied
// by the caller.
var SweepWith = sweep

// Plan is the sweep's grouping and dealing step: Plan(jobs, workers)[w][m]
// lists the job indices worker w runs through its m-th model.
var Plan = plan

// DecodeAll decodes a recording with ReadEvents or, ref, with the
// per-field reference decoder; see decodeAll.
var DecodeAll = decodeAll

// Decoded is one decode's result.
type Decoded = decoded
