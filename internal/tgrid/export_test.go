package tgrid

// RunOracle exposes the reference event loop to the external tests, which
// drive it with the emulated cluster's timing (internal/cluster imports
// this package, so only an external test package can import it).
var RunOracle = runOracle
