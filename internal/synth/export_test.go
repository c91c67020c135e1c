package synth

// SampleVectors exposes VerifySampled's vector sequence to the external
// differential tests.
var SampleVectors = sampleVectors
