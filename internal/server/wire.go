// Package server is the campaign-as-a-service layer behind rhserved:
// a campaign manager that runs multiple concurrent campaigns on the
// internal/campaign engine with FIFO scheduling, per-campaign worker
// budgets and checkpoint resume, plus the HTTP API that accepts
// campaign specs, streams progress over SSE, and serves queries over
// the indexed artifact store.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	rh "rowhammer"
	"rowhammer/internal/campaign"
	"rowhammer/internal/exp"
)

// Spec is the wire form of a campaign: the POST /v1/campaigns body
// and, identically, the rhfleet -spec file schema. One schema for
// both entry points means a spec file tested on the CLI submits to
// the daemon unchanged.
type Spec struct {
	// Kind is a measurement kind (hcfirst, ber, wcdp, spatial) or a
	// paper experiment ID (fig5, table3, ...; exp: prefix forces the
	// experiment on a name collision).
	Kind string `json:"kind"`
	// Mfrs lists manufacturer profiles (measurement kinds only;
	// experiment campaigns shard themselves).
	Mfrs []string `json:"mfrs"`
	// ModulesPerMfr is the fleet width per manufacturer.
	ModulesPerMfr int `json:"modules_per_mfr"`
	// Seed is the master seed; module seeds derive from it.
	Seed uint64 `json:"seed"`
	// Scale names the measurement scale: tiny, default, paper.
	Scale string `json:"scale"`
	// Temps is the BER temperature grid in °C.
	Temps []float64 `json:"temps"`
	// Workers bounds the campaign's worker pool (0 = one per CPU,
	// subject to the server's per-campaign budget).
	Workers int `json:"workers"`
	// MaxRetries, JobTimeoutMS, RetryBackoffMS, BreakerThreshold and
	// WatchdogFactor are the hardening knobs, same semantics as the
	// rhfleet flags.
	MaxRetries       int   `json:"max_retries"`
	JobTimeoutMS     int64 `json:"job_timeout_ms"`
	RetryBackoffMS   int64 `json:"retry_backoff_ms"`
	BreakerThreshold int   `json:"breaker_threshold"`
	WatchdogFactor   int   `json:"watchdog_factor"`
	// Shards, when > 1, fans the campaign across that many
	// internally supervised shard workers (internal/shard), each with
	// its own checkpoint and lease. An execution knob like Workers:
	// it is excluded from the campaign's identity, and the merged
	// result is byte-identical to an unsharded run of the same spec.
	Shards int `json:"shards,omitempty"`
}

// decodeSpec reads one wire spec, rejecting unknown fields so a
// misspelled knob fails loudly instead of silently taking its default.
func decodeSpec(r io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// CampaignSpec lowers the wire spec to the library spec, resolving
// the named scale.
func (s Spec) CampaignSpec() (rh.CampaignSpec, error) {
	spec := rh.CampaignSpec{
		Kind:             s.Kind,
		Mfrs:             s.Mfrs,
		ModulesPerMfr:    s.ModulesPerMfr,
		Seed:             s.Seed,
		Temps:            s.Temps,
		Workers:          s.Workers,
		MaxRetries:       s.MaxRetries,
		JobTimeout:       time.Duration(s.JobTimeoutMS) * time.Millisecond,
		RetryBackoff:     time.Duration(s.RetryBackoffMS) * time.Millisecond,
		BreakerThreshold: s.BreakerThreshold,
		WatchdogFactor:   s.WatchdogFactor,
	}
	name := s.Scale
	if name == "" {
		name = "default"
	}
	sc, geom, ok := rh.NamedScale(name)
	if !ok {
		return spec, fmt.Errorf("unknown scale %q (tiny, default, paper)", name)
	}
	spec.Scale, spec.Geometry = sc, geom
	return spec, nil
}

// Resolved is a campaign ready for the engine: the normalized engine
// spec, its runner, and — for experiment kinds — the experiment whose
// merged artifact is the campaign's deliverable.
type Resolved struct {
	// Spec is the normalized engine spec; its IdentityHash names the
	// campaign.
	Spec campaign.Spec
	// Runner executes the campaign's jobs.
	Runner campaign.Runner
	// Exp is non-nil for experiment kinds (exp:fig5, ...); nil for
	// the per-module measurement kinds.
	Exp *exp.Experiment
}

// Resolve validates a campaign spec and lowers it to the engine.
// Measurement kinds (hcfirst, ber, wcdp, spatial) expand mfrs ×
// modules and win any name collision; everything else resolves as a
// paper experiment, which shards itself (one job per shard). The exp:
// prefix forces the experiment (e.g. exp:wcdp runs the Table 1 survey
// experiment rather than the wcdp measurement kind). All validation —
// unknown kinds, bad temperature grids, watchdog without timeout —
// happens here, before any job runs or any file is touched.
func Resolve(spec rh.CampaignSpec) (Resolved, error) {
	if e := ResolveExperiment(spec.Kind); e != nil {
		ecfg := exp.Config{Scale: spec.Scale, Geometry: spec.Geometry, Seed: spec.Seed, Workers: spec.Workers}
		cs := exp.FleetSpec(*e, ecfg)
		cs.MaxRetries = spec.MaxRetries
		cs.JobTimeout = spec.JobTimeout
		cs.RetryBackoff = spec.RetryBackoff
		cs.BreakerThreshold = spec.BreakerThreshold
		cs.WatchdogFactor = spec.WatchdogFactor
		n, err := cs.Normalize()
		if err != nil {
			return Resolved{}, err
		}
		return Resolved{Spec: n, Runner: exp.FleetRunner(ecfg), Exp: e}, nil
	}
	if err := validMeasurementKind(spec.Kind); err != nil {
		return Resolved{}, err
	}
	cs, runner, err := rh.CampaignEngine(spec)
	if err != nil {
		return Resolved{}, err
	}
	return Resolved{Spec: cs, Runner: runner}, nil
}

// ResolveExperiment maps a campaign kind to a paper experiment, or
// nil for the measurement kinds. Measurement kinds win a bare-name
// collision (the "wcdp" measurement kind predates the wcdp
// experiment); the exp: prefix selects the experiment explicitly.
func ResolveExperiment(kind string) *exp.Experiment {
	if e := exp.FleetExperiment(kind); e != nil {
		return e
	}
	for _, k := range rh.CampaignKinds() {
		if kind == k {
			return nil
		}
	}
	return exp.ByID(kind)
}

// validMeasurementKind rejects unknown measurement kinds (empty
// defaults later); experiment IDs are resolved before this runs.
func validMeasurementKind(kind string) error {
	if kind == "" {
		return nil
	}
	for _, k := range rh.CampaignKinds() {
		if kind == k {
			return nil
		}
	}
	return fmt.Errorf("unknown experiment kind %q (have hcfirst, ber, wcdp, spatial, or a paper experiment id from rhchar -list)", kind)
}
