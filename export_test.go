package mario

import (
	"context"

	"mario/internal/tuner"
)

// Test hooks for the external test package: what a plan promises about the
// schedules it does not carry is stated against the schedules the search
// scored and the ones Resimulate rebuilds, neither of which the public API
// hands out.

// ScoredSchedules runs the search behind conf and returns, by candidate label,
// the text of every schedule the search scored — as the tuner's Progress
// callback sees them, before the merge drops all but the winner's.
func ScoredSchedules(conf Config, model ModelConfig) (map[string]string, error) {
	w, err := Resolve(conf, model)
	if err != nil {
		return nil, err
	}
	tn := w.tuner()
	scored := map[string]string{}
	tn.Progress = func(c, _ tuner.Candidate) { scored[c.Label()] = c.Schedule.String() }
	tn.Workers = conf.Workers
	_, _, err = tn.SearchContext(context.Background(), w.Space)
	return scored, err
}

// RebuiltSchedule returns the text of the schedule Resimulate runs for c: the
// one c carries, or the one rebuilt from its coordinates and the plan's space.
func RebuiltSchedule(p *Plan, c *tuner.Candidate) (string, error) {
	sched, _, err := (&tuner.Tuner{Prof: p.Profiler}).Resimulate(context.Background(), c, p.space)
	if err != nil {
		return "", err
	}
	return sched.String(), nil
}
