package server

import (
	"errors"
	"testing"
	"time"

	rh "rowhammer"
	"rowhammer/internal/exp"
)

// TestResolveExperiment: measurement kinds win bare-name collisions
// (the wcdp measurement kind predates the wcdp experiment), the exp:
// prefix forces the experiment, and unknown names resolve to nothing.
func TestResolveExperiment(t *testing.T) {
	cases := []struct {
		kind string
		want string // experiment ID, "" = measurement/unknown
	}{
		{"hcfirst", ""},
		{"ber", ""},
		{"wcdp", ""}, // collision: measurement kind wins
		{"spatial", ""},
		{"fig5", "fig5"},
		{"table3", "table3"},
		{"exp:wcdp", "wcdp"}, // explicit prefix selects the experiment
		{"exp:fig5", "fig5"},
		{"nosuch", ""},
		{"exp:nosuch", ""},
	}
	for _, c := range cases {
		e := ResolveExperiment(c.kind)
		got := ""
		if e != nil {
			got = e.ID
		}
		if got != c.want {
			t.Errorf("ResolveExperiment(%q) = %q, want %q", c.kind, got, c.want)
		}
	}
}

func TestSpecCampaignSpec(t *testing.T) {
	wire := Spec{
		Kind: "ber", Mfrs: []string{"A", "B"}, ModulesPerMfr: 2, Seed: 7,
		Scale: "tiny", Temps: []float64{50, 55}, Workers: 3, MaxRetries: 2,
		JobTimeoutMS: 1500, RetryBackoffMS: 10, BreakerThreshold: 3, WatchdogFactor: 2,
	}
	spec, err := wire.CampaignSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Scale != rh.TinyScale() || spec.Geometry != rh.TinyGeometry() {
		t.Error("tiny scale not applied")
	}
	if spec.JobTimeout != 1500*time.Millisecond || spec.RetryBackoff != 10*time.Millisecond {
		t.Errorf("durations not lowered: %v %v", spec.JobTimeout, spec.RetryBackoff)
	}
	if spec.Kind != "ber" || spec.Seed != 7 || spec.Workers != 3 {
		t.Errorf("fields lost: %+v", spec)
	}
	if _, err := (Spec{Scale: "huge"}).CampaignSpec(); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestResolveValidation(t *testing.T) {
	if _, err := Resolve(rh.CampaignSpec{Kind: "nosuch"}); err == nil {
		t.Error("unknown kind accepted")
	}
	// Bad temperature grids are rejected here, before any job runs.
	var tse *rh.TempStepError
	_, err := Resolve(rh.CampaignSpec{Kind: "ber", Temps: []float64{90, 70, 50}})
	if !errors.As(err, &tse) {
		t.Errorf("descending temps: want *TempStepError, got %v", err)
	}
	// Measurement kinds get the engine's own spec validation here
	// too, as experiment kinds already do.
	for name, spec := range map[string]rh.CampaignSpec{
		"watchdog without job timeout": {Kind: "hcfirst", Scale: rh.TinyScale(), Geometry: rh.TinyGeometry(), WatchdogFactor: 2},
		"grid above MaxJobs":           {Kind: "hcfirst", Scale: rh.TinyScale(), Geometry: rh.TinyGeometry(), ModulesPerMfr: 100_000_000},
	} {
		if _, err := Resolve(spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Experiment kinds resolve with their fleet identity.
	rsv, err := Resolve(rh.CampaignSpec{Kind: "fig5", Scale: rh.TinyScale(), Geometry: rh.TinyGeometry(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rsv.Exp == nil || rsv.Exp.ID != "fig5" || rsv.Spec.Kind != exp.FleetKind("fig5") {
		t.Fatalf("fig5 resolution wrong: %+v", rsv.Spec)
	}
	if rsv.Runner == nil {
		t.Fatal("nil runner")
	}
}
