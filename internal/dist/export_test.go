package dist

// OneStepAtATime makes rt run one step at a time, in plan order, so a
// run's Report.PeakBytes depends on the plan alone and not on the order
// concurrent steps happen to complete in.
func OneStepAtATime(rt *Runtime) { rt.oneStep = true }
