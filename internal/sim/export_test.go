package sim

// SetReference forces (or lifts) the per-event reference forms: one wake
// per counter waiter, no stores issued ahead, and the NIC's per-write
// trigger pipeline.
func SetReference(on bool) { reference = on }
