package exec

import (
	"context"
	"time"

	"repro/internal/buildid"
	"repro/internal/obs"
	"repro/internal/sim"
)

// simObserver is the observer type Build threads through to the engine
// config; an alias so spec.go stays free of the obs import noise.
type simObserver = obs.Observer

// Result is the serializable outcome of executing a RunSpec: what the
// store persists under the spec's fingerprint and the daemon returns from
// POST /v1/sim. Metrics is the deterministic payload — byte-identical for
// the same fingerprint whether freshly simulated or served from the store;
// ElapsedSec and BuildID describe the execution that produced it.
type Result struct {
	V          int         `json:"v"`
	FP         string      `json:"fingerprint"`
	Spec       RunSpec     `json:"spec"` // canonical form
	Metrics    sim.Metrics `json:"metrics"`
	ElapsedSec float64     `json:"elapsed_sec"`
	BuildID    string      `json:"build_id"`
}

// BuildID identifies the running binary for fingerprints; see
// bench.BuildID.
func BuildID() string { return buildid.ID() }

// Run validates the spec, builds the engine, source and plan, and executes
// the run to completion (or ctx cancellation). o, when non-nil, taps the
// run's Observer probes — progress streaming for the daemon's SSE
// endpoint; observers are read-only, so the Result is bit-identical with
// or without one.
func Run(ctx context.Context, s RunSpec, o obs.Observer) (Result, error) {
	c, err := s.Compile()
	if err != nil {
		return Result{}, err
	}
	return c.Run(ctx, o)
}

// Run builds the engine, source and plan of the compiled spec and executes
// the run, as the package-level Run does after compiling.
func (c *Compiled) Run(ctx context.Context, o obs.Observer) (Result, error) {
	eng, err := c.build(o)
	if err != nil {
		return Result{}, err
	}
	src, plan, err := c.source()
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	res, err := eng.Run(ctx, src, plan)
	if err != nil {
		return Result{}, err
	}
	return Result{
		V:          SpecVersion,
		FP:         c.spec.Fingerprint(BuildID()),
		Spec:       c.spec,
		Metrics:    res.Metrics,
		ElapsedSec: time.Since(start).Seconds(),
		BuildID:    BuildID(),
	}, nil
}
