package main

import (
	"context"
	"testing"

	"repro/internal/exec"
	"repro/internal/sim"
)

// TestFillTapBitIdentical runs the same specs with the bare traffic source
// and behind a fillTap, on both engines and with worker shards: the tap
// must keep the batched path and change no metric.
func TestFillTapBitIdentical(t *testing.T) {
	specs := []exec.RunSpec{
		{Algo: "hypercube-adaptive", Topology: "hypercube:7", Inject: "dynamic", Lambda: 0.6, Warmup: 50, Measure: 200, Seed: 3, Workers: 2},
		{Algo: "hypercube-adaptive", Topology: "hypercube:7", Engine: "atomic", Inject: "dynamic", Lambda: 0.3, Warmup: 50, Measure: 200, Seed: 3},
		{Algo: "graph-adaptive", Topology: "graph:dragonfly:a=4,g=9", Engine: "atomic", Inject: "dynamic", Traffic: "mmpp", Lambda: 0.3, Warmup: 50, Measure: 200, Seed: 4},
		{Algo: "mesh-adaptive", Topology: "mesh:8x8", Inject: "static", Packets: 3, Seed: 5, Workers: 2},
	}
	for _, s := range specs {
		run := func(tap bool) (sim.Metrics, *fillTap) {
			eng, err := s.Build()
			if err != nil {
				t.Fatal(err)
			}
			src, plan, err := s.Source()
			if err != nil {
				t.Fatal(err)
			}
			var ft *fillTap
			if tap {
				if ft, err = newFillTap(src, nil, "test"); err != nil {
					t.Fatal(err)
				}
				src = ft
			}
			res, err := eng.Run(context.Background(), src, plan)
			if err != nil {
				t.Fatal(err)
			}
			return res.Metrics, ft
		}
		bare, _ := run(false)
		tapped, ft := run(true)
		if bare != tapped {
			t.Errorf("%s/%s on %s: tapped metrics %+v, bare %+v", s.Algo, s.Topology, s.Engine, tapped, bare)
		}
		if got := ft.injected.Load(); got != tapped.Injected || got == 0 {
			t.Errorf("%s on %s: tap counted %d injections, engine %d", s.Topology, s.Engine, got, tapped.Injected)
		}
		if ft.fillNS.Load() <= 0 {
			t.Errorf("%s on %s: no fill time recorded", s.Topology, s.Engine)
		}
	}
}

type scalarSource struct{}

func (scalarSource) Wants(int32, int64) bool { return false }
func (scalarSource) Take(int32, int64) int32 { return 0 }
func (scalarSource) Exhausted(int32) bool    { return true }

func TestFillTapIsBatchSource(t *testing.T) {
	s := exec.RunSpec{Algo: "hypercube-adaptive", Topology: "hypercube:4", Inject: "dynamic", Lambda: 0.5, Seed: 1}
	src, _, err := s.Source()
	if err != nil {
		t.Fatal(err)
	}
	ft, err := newFillTap(src, nil, "test")
	if err != nil {
		t.Fatal(err)
	}
	var asSource sim.TrafficSource = ft
	if _, ok := asSource.(sim.BatchSource); !ok {
		t.Fatal("fillTap does not satisfy sim.BatchSource")
	}
	if _, err := newFillTap(scalarSource{}, nil, "test"); err == nil {
		t.Fatal("wrapping a scalar-only source succeeded")
	}
}
