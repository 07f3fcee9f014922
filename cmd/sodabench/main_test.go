package main

import (
	"testing"
	"time"

	"repro/internal/exp"
)

// TestModeDefaultDurationsFitExperiments runs each simulated mode at the
// length it gets when -duration is unset, so a default that fails its
// experiment's run-length check (as plain -autoscale once did) is caught.
func TestModeDefaultDurationsFitExperiments(t *testing.T) {
	runs := map[string]func(time.Duration) error{
		"chaos": func(d time.Duration) error {
			_, err := exp.RunChaosWith(1, d)
			return err
		},
		"failover": func(d time.Duration) error {
			_, err := exp.RunFailoverWith(1, d)
			return err
		},
		"autoscale": func(d time.Duration) error {
			_, err := exp.RunAutoscaleWith(1, d)
			return err
		},
	}
	for mode, run := range runs {
		if err := run(durationFor(mode, 0)); err != nil {
			t.Errorf("%s at its default duration %v: %v", mode, durationFor(mode, 0), err)
		}
	}
	if d := durationFor("throughput", 0); d != 5*time.Second {
		t.Errorf("throughput default = %v, want 5s", d)
	}
	if d := durationFor("autoscale", 7*time.Second); d != 7*time.Second {
		t.Errorf("explicit -duration overridden: got %v", d)
	}
}
