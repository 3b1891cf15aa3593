package tstore

// SynthTrace exposes the deterministic synthetic trace to the external
// test package.
var SynthTrace = synthTrace
