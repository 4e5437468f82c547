package tls

// SyncThreshold exposes syncThreshold to the reference simulator.
const SyncThreshold = syncThreshold
