package homunculus

// The canonical serving-config surface: ServingConfig is the one
// artifact that names every serving knob — replacing the flat fields
// scattered across EndpointOptions, the wire JSON and the CLI flags —
// and the unit the tuner emits, the manifest persists, and
// `PUT /v1/endpoints/{name}/config` applies. See docs/tuning.md.

import (
	"fmt"

	"repro/internal/serve"
	"repro/internal/store"
)

// ServingConfig is the canonical, versioned serving configuration
// (see serve.ServingConfig for field semantics and accepted ranges).
// The zero value means current defaults; MaxDelayNS is presence-aware,
// so an explicit zero (greedy flush) survives rollouts.
type ServingConfig = serve.ServingConfig

// ServingConfigError lists every validation violation in a
// ServingConfig (errors.As target).
type ServingConfigError = serve.ConfigError

// ParseServingConfig decodes and validates a canonical config
// document, rejecting unknown fields.
func ParseServingConfig(data []byte) (ServingConfig, error) {
	return serve.ParseConfig(data)
}

// servingOptions resolves a create request's runtime bounds:
// the canonical Serving config wins wholesale when present (the flat
// legacy knobs are ignored); otherwise the flat knobs apply with their
// historical zero-means-default semantics.
func servingOptions(o EndpointOptions) (serve.Options, error) {
	if o.Serving != nil {
		if err := o.Serving.Validate(); err != nil {
			return serve.Options{}, err
		}
		return o.Serving.Options(), nil
	}
	return serve.Options{
		Shards:        o.Shards,
		BatchSize:     o.BatchSize,
		MaxDelay:      o.MaxDelay,
		QueueDepth:    o.QueueDepth,
		RetainRetired: o.RetainRetired,
	}, nil
}

// validateRollouts resolves the rollout-validation gate of a request.
func validateRollouts(o EndpointOptions) bool {
	return o.ValidateRollouts || (o.Serving != nil && o.Serving.ValidateRollouts)
}

// servingRecord persists the requested bounds (zero fields stay zero —
// defaults are re-derived on restore).
func servingRecord(o EndpointOptions) store.OptionsRecord {
	if o.Serving == nil {
		r := optionsRecord(o)
		return r
	}
	return configRecord(*o.Serving)
}

// configRecord renders a canonical config in its persisted form.
func configRecord(c ServingConfig) store.OptionsRecord {
	r := store.OptionsRecord{
		Shards:           c.Shards,
		BatchSize:        c.BatchSize,
		QueueDepth:       c.QueueDepth,
		RetainRetired:    c.RetainRetired,
		AdaptiveFlush:    c.AdaptiveFlush,
		ValidateRollouts: c.ValidateRollouts,
	}
	if c.MaxDelayNS != nil {
		r.MaxDelayNS = *c.MaxDelayNS
		r.MaxDelaySet = true
	}
	return r
}

// recordConfig is the inverse of configRecord, for per-revision
// config readback.
func recordConfig(r store.OptionsRecord) ServingConfig {
	c := ServingConfig{
		Version:          serve.ConfigVersion,
		Shards:           r.Shards,
		BatchSize:        r.BatchSize,
		QueueDepth:       r.QueueDepth,
		RetainRetired:    r.RetainRetired,
		AdaptiveFlush:    r.AdaptiveFlush,
		ValidateRollouts: r.ValidateRollouts,
	}
	if r.MaxDelaySet || r.MaxDelayNS != 0 {
		ns := r.MaxDelayNS
		c.MaxDelayNS = &ns
	}
	return c
}

// ServingConfig returns the endpoint's live effective configuration —
// every field resolved, suitable for GET /v1/endpoints/{name}/config
// and as the base document to edit and re-apply.
func (e *Endpoint) ServingConfig() ServingConfig {
	c := serve.ConfigFromOptions(e.ep.Options())
	c.Version = serve.ConfigVersion
	e.mu.Lock()
	c.ValidateRollouts = e.validate
	e.mu.Unlock()
	return c
}

// RevisionConfigs returns each revision's requested runtime overrides
// (zero fields inherited the endpoint defaults at rollout time).
func (e *Endpoint) RevisionConfigs() map[int]ServingConfig {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[int]ServingConfig, len(e.meta))
	for id, m := range e.meta {
		out[id] = recordConfig(m.opts)
	}
	return out
}

// ApplyConfig replaces the endpoint's serving configuration with cfg —
// complete-document semantics: the posted config IS the new config,
// zero fields meaning defaults, not "keep the old value" (GET, edit,
// PUT round-trips losslessly). The change rides the atomic rollout
// path: the stable model is re-served as a fresh revision with the new
// bounds and promoted in one routing-table swap, so the previous
// configuration stays one Rollback away. Fails with a
// *ServingConfigError listing violations, or ErrRolloutActive while a
// canary/shadow rollout is in flight.
func (e *Endpoint) ApplyConfig(cfg ServingConfig) (RevisionInfo, error) {
	if err := cfg.Validate(); err != nil {
		return RevisionInfo{}, err
	}
	stable, _, _, _ := e.ep.View()
	e.mu.Lock()
	prev := e.meta[stable]
	e.mu.Unlock()
	rev, err := e.ep.Reconfigure(cfg.Options())
	if err != nil {
		return RevisionInfo{}, fmt.Errorf("homunculus: apply config on %s: %w", e.name, err)
	}
	rec := configRecord(cfg)
	e.mu.Lock()
	e.meta[rev.ID] = revisionMeta{jobID: prev.jobID, app: prev.app, specHash: prev.specHash, opts: rec}
	e.reqOpts = rec
	e.validate = cfg.ValidateRollouts
	e.mu.Unlock()
	e.svc.persistEndpoints()
	return RevisionInfo{
		ID: rev.ID, JobID: prev.jobID, App: prev.app,
		State: RevisionState(serve.RevStable), Created: rev.Created, Warm: true,
	}, nil
}
