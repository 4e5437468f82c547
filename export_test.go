package jrpm

// SpeculateEntries exposes the simulation half of SpeculateLoops, so
// tests can feed it per-iteration traces recorded some other way.
var SpeculateEntries = speculateEntries
